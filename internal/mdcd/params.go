package mdcd

import (
	"fmt"
	"math"

	"guardedop/internal/robust"
)

// Params holds the model parameters of the paper's Table 3. All rates are
// per hour; Theta and durations are in hours.
type Params struct {
	// Theta is the time to the next scheduled onboard upgrade.
	Theta float64
	// Lambda is the message-sending rate of a process.
	Lambda float64
	// MuNew is the fault-manifestation rate of the newly upgraded version.
	MuNew float64
	// MuOld is the fault-manifestation rate of an old software version.
	MuOld float64
	// Coverage is the acceptance-test coverage c.
	Coverage float64
	// PExt is the probability that a message is external.
	PExt float64
	// Alpha is the acceptance-test completion rate.
	Alpha float64
	// Beta is the checkpoint-establishment completion rate.
	Beta float64
}

// DefaultParams returns the paper's Table 3 base assignment:
// θ=10000 h, λ=1200/h, µ_new=1e-4/h, µ_old=1e-8/h, c=0.95, p_ext=0.1,
// α=6000/h, β=6000/h.
func DefaultParams() Params {
	return Params{
		Theta:    10000,
		Lambda:   1200,
		MuNew:    1e-4,
		MuOld:    1e-8,
		Coverage: 0.95,
		PExt:     0.1,
		Alpha:    6000,
		Beta:     6000,
	}
}

// Validate checks parameter sanity. A rejection wraps robust.ErrInvariant:
// a degenerate parameter set is a caller error, never a transient one.
func (p Params) Validate() error {
	check := func(name string, v float64, allowZero bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (!allowZero && v == 0) {
			return fmt.Errorf("mdcd: parameter %s = %g out of range: %w", name, v, robust.ErrInvariant)
		}
		return nil
	}
	if err := check("Theta", p.Theta, false); err != nil {
		return err
	}
	if err := check("Lambda", p.Lambda, false); err != nil {
		return err
	}
	if err := check("MuNew", p.MuNew, true); err != nil {
		return err
	}
	if err := check("MuOld", p.MuOld, true); err != nil {
		return err
	}
	if err := check("Alpha", p.Alpha, false); err != nil {
		return err
	}
	if err := check("Beta", p.Beta, false); err != nil {
		return err
	}
	if p.Coverage < 0 || p.Coverage > 1 || math.IsNaN(p.Coverage) {
		return fmt.Errorf("mdcd: Coverage = %g, want [0,1]: %w", p.Coverage, robust.ErrInvariant)
	}
	if p.PExt <= 0 || p.PExt > 1 || math.IsNaN(p.PExt) {
		return fmt.Errorf("mdcd: PExt = %g, want (0,1]: %w", p.PExt, robust.ErrInvariant)
	}
	return nil
}
