package mdcd

import (
	"context"
	"fmt"

	"guardedop/internal/obs"
	"guardedop/internal/reward"
	"guardedop/internal/robust"
	"guardedop/internal/san"
)

// GdMeasures are the constituent measures solved in RMGd (paper Table 1)
// for a particular G-OP duration φ.
type GdMeasures struct {
	// IntH = ∫₀^φ h(τ)dτ: probability that an error occurs and is detected
	// by φ. Instant-of-time reward at φ with predicate
	// detected==1 && failure==0.
	IntH float64
	// IntTauH = ∫₀^φ τh(τ)dτ: mean time to error detection (truncated at
	// φ). Accumulated reward over [0,φ] with rate 1 on detected==0 and
	// rate -1 on detected==0 && failure==1.
	IntTauH float64
	// IntHF = ∫₀^φ∫_τ^φ h(τ)f(x)dx dτ: probability that an error is
	// detected during G-OP and the recovered system fails by φ.
	// Instant-of-time reward at φ with predicate detected==1 && failure==1.
	IntHF float64
	// PA1 = P(X′_φ ∈ A′₁): probability no error has occurred by φ.
	// Instant-of-time reward at φ with predicate detected==0 && failure==0.
	PA1 float64
	// PUndetectedFailure = P(X′_φ ∈ A′₄): probability the system failed by
	// φ without detection. Not part of Table 1, but completes the state
	// partition (PA1 + IntH + IntHF + PUndetectedFailure = 1) and is used
	// by validation tests.
	PUndetectedFailure float64
	// AccDetected = ∫₀^φ P(detected by u)du. Not part of Table 1; it
	// enables the exact conditional mean detection time used by the
	// γ-policy ablation (see MeanDetectionTime).
	AccDetected float64
	// phi records the duration the measures were solved at.
	phi float64
}

// WithPhi returns a copy of m with the duration used by
// MeanDetectionTime set to phi. It exists for assemblers outside the
// package (the parametric layer) that fill the measure fields without
// going through this package's solvers.
func (m GdMeasures) WithPhi(phi float64) GdMeasures {
	m.phi = phi
	return m
}

// PDetected returns P(an error has been detected by φ), whether or not the
// recovered system subsequently failed.
func (m GdMeasures) PDetected() float64 { return m.IntH + m.IntHF }

// MeanDetectionTime returns the exact conditional mean time to error
// detection, E[τ | τ ≤ φ]. Detection is monotone (the detected place is
// never reset), so E[τ·1(τ≤φ)] = φ·P(detected by φ) − ∫₀^φ P(detected by
// u)du. It returns 0 when detection has probability 0.
//
// Contrast with the paper's Table 1 ∫τh reward (IntTauH), which
// accumulates sojourn before the FIRST ERROR EVENT and counts the full φ
// for error-free paths; that quantity exceeds this conditional mean.
func (m GdMeasures) MeanDetectionTime() float64 {
	pDet := m.PDetected()
	if pDet <= 0 {
		return 0
	}
	return (m.phi*pDet - m.AccDetected) / pDet
}

// structIntH is the Table 1 reward structure for ∫h.
func (r *RMGd) structIntH() *reward.Structure {
	return reward.NewStructure().Add("detected && !failure", func(mk san.Marking) bool {
		return mk.Get(r.Detected) == 1 && mk.Get(r.Failure) == 0
	}, 1)
}

// structIntTauH is the Table 1 reward structure for ∫τh.
func (r *RMGd) structIntTauH() *reward.Structure {
	return reward.NewStructure().
		Add("!detected", func(mk san.Marking) bool {
			return mk.Get(r.Detected) == 0
		}, 1).
		Add("!detected && failure", func(mk san.Marking) bool {
			return mk.Get(r.Detected) == 0 && mk.Get(r.Failure) == 1
		}, -1)
}

// structIntHF is the Table 1 reward structure for ∫∫hf.
func (r *RMGd) structIntHF() *reward.Structure {
	return reward.NewStructure().Add("detected && failure", func(mk san.Marking) bool {
		return mk.Get(r.Detected) == 1 && mk.Get(r.Failure) == 1
	}, 1)
}

// structPA1 is the Table 1 reward structure for P(X′_φ ∈ A′₁).
func (r *RMGd) structPA1() *reward.Structure {
	return reward.NewStructure().Add("!detected && !failure", func(mk san.Marking) bool {
		return mk.Get(r.Detected) == 0 && mk.Get(r.Failure) == 0
	}, 1)
}

// Table1Structures returns the named Table 1 reward structures, keyed by the
// paper's measure notation. Used for diagnostics and the table1 experiment.
func (r *RMGd) Table1Structures() map[string]*reward.Structure {
	return map[string]*reward.Structure{
		"int_h":       r.structIntH(),
		"int_tau_h":   r.structIntTauH(),
		"int_int_h_f": r.structIntHF(),
		"P(A1)":       r.structPA1(),
	}
}

// Measures solves all Table 1 constituent measures at G-OP duration phi,
// one full transient or accumulated solve per measure against the reward
// vectors prebuilt at model construction. This is the point-wise reference
// path; φ-grids should use MeasuresSeriesContext, which shares a single
// incremental propagation across the whole grid.
func (r *RMGd) Measures(phi float64) (GdMeasures, error) {
	return r.MeasuresContext(context.Background(), phi)
}

// MeasuresContext is Measures under a caller-carried context: one
// "mdcd.RMGd.measures" span covers the call, with a child
// "mdcd.measure" span per Table 1 constituent so a trace shows which
// measure each solver pass served.
func (r *RMGd) MeasuresContext(ctx context.Context, phi float64) (GdMeasures, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMGd.measures")
	defer sp.End()
	sp.SetFloat("phi", phi)
	ch, init := r.Space.Chain, r.Space.Initial
	solve := func(name string, accumulated bool, rates []float64) (float64, error) {
		mctx, msp := obs.StartSpan(ctx, "mdcd.measure")
		defer msp.End()
		msp.SetStr("measure", name)
		if accumulated {
			return ch.AccumulatedRewardContext(mctx, init, phi, rates)
		}
		return ch.TransientRewardContext(mctx, init, phi, rates)
	}
	var out GdMeasures
	var err error
	if out.IntH, err = solve("int_h", false, r.vIntH); err != nil {
		return out, err
	}
	if out.IntTauH, err = solve("int_tau_h", true, r.vIntTauH); err != nil {
		return out, err
	}
	if out.IntHF, err = solve("int_int_h_f", false, r.vIntHF); err != nil {
		return out, err
	}
	if out.PA1, err = solve("P(A1)", false, r.vPA1); err != nil {
		return out, err
	}
	if out.PUndetectedFailure, err = solve("P(A4)", false, r.vUndet); err != nil {
		return out, err
	}
	if out.AccDetected, err = solve("acc_detected", true, r.vDetected); err != nil {
		return out, err
	}
	out.phi = phi
	return out, nil
}

// MeasuresFromSolution assembles the Table 1 measures at duration phi from
// an already-solved state-probability vector π(φ) and accumulated-sojourn
// vector L(φ) = ∫₀^φ π(u)du of this model's chain. Every measure is a dot
// product against the prebuilt reward vectors — no solver work.
func (r *RMGd) MeasuresFromSolution(phi float64, pi, acc []float64) (GdMeasures, error) {
	out := GdMeasures{phi: phi}
	var err error
	if out.IntH, err = dotReward("int_h", r.vIntH, pi); err != nil {
		return out, err
	}
	if out.IntTauH, err = dotReward("int_tau_h", r.vIntTauH, acc); err != nil {
		return out, err
	}
	if out.IntHF, err = dotReward("int_int_h_f", r.vIntHF, pi); err != nil {
		return out, err
	}
	if out.PA1, err = dotReward("P(A1)", r.vPA1, pi); err != nil {
		return out, err
	}
	if out.PUndetectedFailure, err = dotReward("P(A4)", r.vUndet, pi); err != nil {
		return out, err
	}
	if out.AccDetected, err = dotReward("acc_detected", r.vDetected, acc); err != nil {
		return out, err
	}
	return out, nil
}

// MeasuresSeriesContext solves the Table 1 measures for every duration in
// phis (unsorted input is aligned with the output) with one shared
// incremental propagation: a single combined transient+accumulated solver
// pass per gap of the sorted grid serves all six measures of every point,
// instead of the six independent full-horizon solves Measures spends per
// φ. The propagation runs inside one "mdcd.RMGd.measures_series" span.
func (r *RMGd) MeasuresSeriesContext(ctx context.Context, phis []float64) ([]GdMeasures, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMGd.measures_series")
	defer sp.End()
	sp.SetInt("points", int64(len(phis)))
	pis, accs, err := r.Space.Chain.TransientAccumulatedSeriesContext(ctx, r.Space.Initial, phis)
	if err != nil {
		return nil, err
	}
	out := make([]GdMeasures, len(phis))
	for i, phi := range phis {
		if out[i], err = r.MeasuresFromSolution(phi, pis[i], accs[i]); err != nil {
			return nil, fmt.Errorf("mdcd: measures at phi=%g: %w", phi, err)
		}
	}
	return out, nil
}

// dotReward contracts a prebuilt reward-rate vector against a solved state
// vector, guarding the result against non-finite contamination.
func dotReward(name string, rates, vec []float64) (float64, error) {
	if len(rates) != len(vec) {
		return 0, fmt.Errorf("mdcd: reward vector %s has %d states, solution has %d",
			name, len(rates), len(vec))
	}
	sum := 0.0
	for i, rr := range rates {
		sum += rr * vec[i]
	}
	if err := robust.CheckFinite(name, sum); err != nil {
		return 0, fmt.Errorf("mdcd: %w", err)
	}
	return sum, nil
}

// GpMeasures are the steady-state overhead measures solved in RMGp (paper
// Table 2).
type GpMeasures struct {
	// Rho1 is the fraction of time P1new makes forward progress.
	Rho1 float64
	// Rho2 is the fraction of time P2 makes forward progress.
	Rho2 float64
}

// Overhead1Structure returns the Table 2 reward structure for 1-ρ₁:
// MARK(P1nExt)==1 (the scenario generator's per-node overhead predicate
// for P1).
func (r *RMGp) Overhead1Structure() *reward.Structure { return r.joint.overhead(r.joint.nodes[0]) }

// Overhead2Structure returns the Table 2 reward structure for 1-ρ₂:
// (MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 && MARK(P2DB)==1)
// (the per-node overhead predicate for P2).
func (r *RMGp) Overhead2Structure() *reward.Structure { return r.joint.overhead(r.joint.nodes[1]) }

// Measures solves the Table 2 steady-state overhead measures from one
// steady-state solve of the chain.
func (r *RMGp) Measures() (GpMeasures, error) {
	sol, err := r.joint.solve()
	if err != nil {
		return GpMeasures{}, err
	}
	return GpMeasures{Rho1: sol.Rhos[0], Rho2: sol.Rhos[1]}, nil
}
