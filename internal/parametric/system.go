package parametric

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/mdcd"
)

// Domain of validity of the closed-form layer (documented in
// docs/PARAMETRIC.md). The bounds are deliberately conservative: they
// delimit the region the probe cross-validation and the equivalence
// suites have actually exercised, not the region the construction
// happens to survive. Anything outside routes to the numeric engine.
const (
	maxDomainTheta  = 1e6
	maxDomainLambda = 1e5
	maxDomainMu     = 1e-2
)

// System holds the closed-form evaluators for every φ-dependent
// constituent measure of one parameter set: the six RMGd quantities
// behind the Table 1 measures and the two RMNd no-failure probabilities
// the analyzer combines into Y(φ). It is built once per analyzer and is
// safe for concurrent use (queries only read).
type System struct {
	theta float64

	// RMGd: pointwise measures read π(φ), interval measures read L(φ).
	intH, intHF, pA1, pUndet *Evaluator
	intTauH, accDet          *Evaluator

	ndNew, ndOld *Evaluator
}

// CheckDomain reports whether the parameters are inside the validated
// domain of the closed-form layer, returning ErrOutOfDomain with the
// offending field if not.
func CheckDomain(p mdcd.Params) error {
	switch {
	case !(p.Theta <= maxDomainTheta):
		return fmt.Errorf("%w: Theta %g > %g", ErrOutOfDomain, p.Theta, maxDomainTheta)
	case !(p.Lambda <= maxDomainLambda):
		return fmt.Errorf("%w: Lambda %g > %g", ErrOutOfDomain, p.Lambda, maxDomainLambda)
	case !(p.MuNew <= maxDomainMu):
		return fmt.Errorf("%w: MuNew %g > %g", ErrOutOfDomain, p.MuNew, maxDomainMu)
	case !(p.MuOld <= maxDomainMu):
		return fmt.Errorf("%w: MuOld %g > %g", ErrOutOfDomain, p.MuOld, maxDomainMu)
	}
	return nil
}

// NewSystem builds the closed-form system for the already-generated
// constituent models. The models must have been built from p; the
// construction decomposes their generators, projects every reward
// structure, and cross-validates the result against the numeric engine
// at five probe durations before declaring the system usable. Any
// failure returns a typed error and the caller falls back to numerics.
func NewSystem(p mdcd.Params, gd *mdcd.RMGd, ndNew, ndOld *mdcd.RMNd) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := CheckDomain(p); err != nil {
		return nil, err
	}

	s := &System{theta: p.Theta}

	gdDec, err := Decompose(gd.Space.Chain.Generator(), gd.Space.Initial, p.Theta)
	if err != nil {
		return nil, fmt.Errorf("RMGd: %w", err)
	}
	vIntH, vIntTauH, vIntHF, vPA1, vUndet, vDetected := gd.RateVectors()
	expand := func(name string, dst **Evaluator, r []float64) {
		if err != nil {
			return
		}
		if *dst, err = gdDec.Expansion(r); err != nil {
			err = fmt.Errorf("RMGd %s: %w", name, err)
		}
	}
	expand("int_h", &s.intH, vIntH)
	expand("int_tau_h", &s.intTauH, vIntTauH)
	expand("int_int_h_f", &s.intHF, vIntHF)
	expand("P(A1)", &s.pA1, vPA1)
	expand("P(A4)", &s.pUndet, vUndet)
	expand("acc_detected", &s.accDet, vDetected)
	if err != nil {
		return nil, err
	}

	for _, nd := range []struct {
		name  string
		model *mdcd.RMNd
		dst   **Evaluator
	}{
		{"RMNd(mu_new)", ndNew, &s.ndNew},
		{"RMNd(mu_old)", ndOld, &s.ndOld},
	} {
		dec, derr := Decompose(nd.model.Space.Chain.Generator(), nd.model.Space.Initial, p.Theta)
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", nd.name, derr)
		}
		if *nd.dst, derr = dec.Expansion(nd.model.NoFailureRates()); derr != nil {
			return nil, fmt.Errorf("%s: %w", nd.name, derr)
		}
	}

	if err := s.validateProbes(p, gd, ndNew, ndOld); err != nil {
		return nil, err
	}
	return s, nil
}

// Theta returns the validated horizon bound (the G-OP duration cap).
func (s *System) Theta() float64 { return s.theta }

// GdMeasures evaluates the Table 1 constituent measures at duration phi
// in closed form. The state-partition invariant PA1 + ∫h + ∫∫hf +
// P(undetected failure) = 1 is re-checked per query; a violation beyond
// float64 evaluation noise means the expansion cannot be trusted at
// this phi and the caller must fall back.
func (s *System) GdMeasures(phi float64) (mdcd.GdMeasures, error) {
	var m mdcd.GdMeasures
	var err error
	eval := func(dst *float64, e *Evaluator, accumulated bool) {
		if err != nil {
			return
		}
		if accumulated {
			*dst, err = e.IntAt(phi)
		} else {
			*dst, err = e.At(phi)
		}
	}
	eval(&m.IntH, s.intH, false)
	eval(&m.IntTauH, s.intTauH, true)
	eval(&m.IntHF, s.intHF, false)
	eval(&m.PA1, s.pA1, false)
	eval(&m.PUndetectedFailure, s.pUndet, false)
	eval(&m.AccDetected, s.accDet, true)
	if err != nil {
		return mdcd.GdMeasures{}, err
	}
	if sum := m.PA1 + m.IntH + m.IntHF + m.PUndetectedFailure; math.Abs(sum-1) > 1e-8 {
		return mdcd.GdMeasures{}, fmt.Errorf("%w: partition sums to %.12f at phi=%g", ErrUnstable, sum, phi)
	}
	return m.WithPhi(phi), nil
}

// NoFailureNew evaluates the RMNd(µ_new) no-failure probability at t.
func (s *System) NoFailureNew(t float64) (float64, error) { return s.ndNew.At(t) }

// NoFailureOld evaluates the RMNd(µ_old) no-failure probability at t.
func (s *System) NoFailureOld(t float64) (float64, error) { return s.ndOld.At(t) }

// probeTol is the agreement required between the closed form and the
// numeric engine at the probe durations. The bound is a construction
// sanity gate, not the equivalence contract: a wrong eigenstructure or
// mishandled Jordan chain is off by many orders of magnitude, while the
// reference itself — the auto engine, which routes large q·t solves
// through scaling-and-squaring expm — carries ~5e-10 relative noise of
// its own (~25 squarings at the paper's q·θ ≈ 2.4e7; uniformization
// agrees with the closed form to ~1e-10 but is too slow to probe at
// build time). The equivalence suites prove the public 1e-9 contract.
// The absolute floor scales with the measure's magnitude
// (interval measures grow like θ).
func probeTol(scale float64) func(a, b float64) bool {
	return func(a, b float64) bool {
		return math.Abs(a-b) <= 5e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12*scale
	}
}

// validateProbes cross-checks the closed-form system against the numeric
// engine at five durations spanning the horizon: 0 (exact boundary), a
// duration deep inside the fast transient, and three across the slow
// scale. Each probe is its own single-point solve — the exact route the
// analyzer's numeric fallback takes (one combined transient+accumulated
// RMGd pass, one transient pass per RMNd) — and not a shared propagation
// over all five, whose incremental error accumulation (~3e-10 relative
// over a grid) would drown the comparison.
func (s *System) validateProbes(p mdcd.Params, gd *mdcd.RMGd, ndNew, ndOld *mdcd.RMNd) error {
	probes := []float64{0, p.Theta * 1e-3, p.Theta / 3, p.Theta * 2 / 3, p.Theta}

	ctx := context.Background()
	okProb := probeTol(1)
	okAcc := probeTol(1 + p.Theta)
	for _, phi := range probes {
		got, gerr := s.GdMeasures(phi)
		if gerr != nil {
			return fmt.Errorf("%w: RMGd at phi=%g: %v", ErrValidation, phi, gerr)
		}
		ws, serr := gd.MeasuresSeriesContext(ctx, []float64{phi})
		if serr != nil {
			return fmt.Errorf("parametric: probe solve (RMGd) at phi=%g: %w", phi, serr)
		}
		w := ws[0]
		fields := []struct {
			name     string
			got, ref float64
			ok       func(a, b float64) bool
		}{
			{"int_h", got.IntH, w.IntH, okProb},
			{"int_tau_h", got.IntTauH, w.IntTauH, okAcc},
			{"int_int_h_f", got.IntHF, w.IntHF, okProb},
			{"P(A1)", got.PA1, w.PA1, okProb},
			{"P(A4)", got.PUndetectedFailure, w.PUndetectedFailure, okProb},
			{"acc_detected", got.AccDetected, w.AccDetected, okAcc},
		}
		for _, f := range fields {
			if !f.ok(f.got, f.ref) {
				return fmt.Errorf("%w: RMGd %s at phi=%g: closed form %.15g vs numeric %.15g",
					ErrValidation, f.name, phi, f.got, f.ref)
			}
		}
	}

	for _, nd := range []struct {
		name  string
		model *mdcd.RMNd
		eval  *Evaluator
	}{
		{"RMNd(mu_new)", ndNew, s.ndNew},
		{"RMNd(mu_old)", ndOld, s.ndOld},
	} {
		for _, t := range probes {
			ref, serr := nd.model.NoFailureProbabilityContext(ctx, t)
			if serr != nil {
				return fmt.Errorf("parametric: probe solve (%s) at t=%g: %w", nd.name, t, serr)
			}
			got, gerr := nd.eval.At(t)
			if gerr != nil {
				return fmt.Errorf("%w: %s at t=%g: %v", ErrValidation, nd.name, t, gerr)
			}
			if !okProb(got, ref) {
				return fmt.Errorf("%w: %s at t=%g: closed form %.15g vs numeric %.15g",
					ErrValidation, nd.name, t, got, ref)
			}
		}
	}
	return nil
}
