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
// constituent measure of one parameter set: the RMGd measures of
// mdcd.GdMeasureDefs behind the Table 1 measures and the two RMNd
// no-failure probabilities the analyzer combines into Y(φ). It is built
// once per analyzer and is safe for concurrent use (queries only read).
type System struct {
	theta float64

	// gd[k] is the closed form of mdcd.GdMeasureDefs[k]: instant measures
	// read π(φ), accumulated ones L(φ).
	gd [mdcd.NumGdMeasures]*Evaluator

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
	for k := range mdcd.GdMeasureDefs {
		if s.gd[k], err = gdDec.Expansion(gd.RateVector(k)); err != nil {
			return nil, fmt.Errorf("RMGd %s: %w", mdcd.GdMeasureDefs[k].Name, err)
		}
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
	var v [mdcd.NumGdMeasures]float64
	for k, e := range s.gd {
		var err error
		if mdcd.GdMeasureDefs[k].Accumulated {
			v[k], err = e.IntAt(phi)
		} else {
			v[k], err = e.At(phi)
		}
		if err != nil {
			return mdcd.GdMeasures{}, err
		}
	}
	m := mdcd.AssembleGdMeasures(phi, v)
	if sum := m.PA1 + m.IntH + m.IntHF + m.PUndetectedFailure; math.Abs(sum-1) > 1e-8 {
		return mdcd.GdMeasures{}, fmt.Errorf("%w: partition sums to %.12f at phi=%g", ErrUnstable, sum, phi)
	}
	return m, nil
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
		gv, wv := got.Values(), ws[0].Values()
		for k := range mdcd.GdMeasureDefs {
			d := &mdcd.GdMeasureDefs[k]
			ok := okProb
			if d.Accumulated {
				ok = okAcc
			}
			if !ok(gv[k], wv[k]) {
				return fmt.Errorf("%w: RMGd %s at phi=%g: closed form %.15g vs numeric %.15g",
					ErrValidation, d.Name, phi, gv[k], wv[k])
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
