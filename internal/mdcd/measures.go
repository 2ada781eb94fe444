package mdcd

import (
	"context"
	"fmt"

	"guardedop/internal/obs"
	"guardedop/internal/reward"
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

// NumGdMeasures is the size of the RMGd measure set: the four Table 1
// measures plus P(A4) and acc_detected.
const NumGdMeasures = 6

// GdMeasure defines one RMGd constituent measure. GdMeasureDefs is the
// one declaration of the set: every solver path (point-wise, series,
// closed form) iterates it, and value arrays are indexed like it.
type GdMeasure struct {
	// Name labels the measure in spans, errors and Table1Structures.
	Name string
	// Accumulated marks an interval-of-time reward over [0, φ], read off
	// L(φ) = ∫₀^φ π(u)du; otherwise the measure is an instant-of-time
	// reward at φ, read off π(φ).
	Accumulated bool
	// Table1 marks the measures of the paper's Table 1.
	Table1 bool
	// pairs is the reward structure over the detected and failure marks.
	pairs []gdPair
}

// gdPair is one predicate-rate pair of an RMGd reward structure: it
// holds in markings with the given detected and failure marks (anyMark
// matches every failure mark).
type gdPair struct {
	name              string
	detected, failure int
	rate              float64
}

const anyMark = -1

// GdMeasureDefs declares the RMGd measures in GdMeasures field order (see
// the field docs for what each one measures). Callers must not modify it.
var GdMeasureDefs = [NumGdMeasures]GdMeasure{
	{Name: "int_h", Table1: true, pairs: []gdPair{{"detected && !failure", 1, 0, 1}}},
	{Name: "int_tau_h", Accumulated: true, Table1: true, pairs: []gdPair{
		{"!detected", 0, anyMark, 1},
		{"!detected && failure", 0, 1, -1},
	}},
	{Name: "int_int_h_f", Table1: true, pairs: []gdPair{{"detected && failure", 1, 1, 1}}},
	{Name: "P(A1)", Table1: true, pairs: []gdPair{{"!detected && !failure", 0, 0, 1}}},
	{Name: "P(A4)", pairs: []gdPair{{"!detected && failure", 0, 1, 1}}},
	{Name: "acc_detected", Accumulated: true, pairs: []gdPair{{"detected", 1, anyMark, 1}}},
}

// AssembleGdMeasures maps a value array indexed like GdMeasureDefs to the
// measures at duration phi.
func AssembleGdMeasures(phi float64, v [NumGdMeasures]float64) GdMeasures {
	return GdMeasures{
		IntH: v[0], IntTauH: v[1], IntHF: v[2], PA1: v[3],
		PUndetectedFailure: v[4], AccDetected: v[5], phi: phi,
	}
}

// Values returns the measures as an array indexed like GdMeasureDefs.
func (m GdMeasures) Values() [NumGdMeasures]float64 {
	return [NumGdMeasures]float64{m.IntH, m.IntTauH, m.IntHF, m.PA1, m.PUndetectedFailure, m.AccDetected}
}

// structure builds d's reward structure over this model's places.
func (r *RMGd) structure(d *GdMeasure) *reward.Structure {
	s := reward.NewStructure()
	for _, p := range d.pairs {
		s.Add(p.name, func(mk san.Marking) bool {
			return mk.Get(r.Detected) == p.detected && (p.failure == anyMark || mk.Get(r.Failure) == p.failure)
		}, p.rate)
	}
	return s
}

// Table1Structures returns the Table 1 reward structures, keyed by the
// measure names. Used for diagnostics and the table1 experiment.
func (r *RMGd) Table1Structures() map[string]*reward.Structure {
	out := make(map[string]*reward.Structure)
	for k := range GdMeasureDefs {
		if d := &GdMeasureDefs[k]; d.Table1 {
			out[d.Name] = r.structure(d)
		}
	}
	return out
}

// value contracts measure k's rate vector against the solution it reads:
// acc = L(φ) for an accumulated measure, pi = π(φ) otherwise.
func (r *RMGd) value(k int, pi, acc []float64) (float64, error) {
	vec := pi
	if GdMeasureDefs[k].Accumulated {
		vec = acc
	}
	return reward.Expected(GdMeasureDefs[k].Name, r.rates[k], vec)
}

// MeasuresContext solves every RMGd measure at G-OP duration phi, one
// full transient or accumulated solve per measure against the rate
// vectors prebuilt at model construction: the point-wise reference path
// (Table 1's own path and the oracle the curve engine is checked
// against). φ-grids should use MeasuresSeriesContext, which shares a
// single incremental propagation across the whole grid. One
// "mdcd.RMGd.measures" span covers the call, with a child "mdcd.measure"
// span per measure so a trace shows which measure each solver pass
// served.
func (r *RMGd) MeasuresContext(ctx context.Context, phi float64) (GdMeasures, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMGd.measures")
	defer sp.End()
	sp.SetFloat("phi", phi)
	var v [NumGdMeasures]float64
	for k := range GdMeasureDefs {
		var err error
		if v[k], err = r.solveMeasure(ctx, k, phi); err != nil {
			return GdMeasures{}, err
		}
	}
	return AssembleGdMeasures(phi, v), nil
}

// solveMeasure runs measure k's own solver pass at phi inside one
// "mdcd.measure" span.
func (r *RMGd) solveMeasure(ctx context.Context, k int, phi float64) (float64, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.measure")
	defer sp.End()
	sp.SetStr("measure", GdMeasureDefs[k].Name)
	ch, init, ts := r.Space.Chain, r.Space.Initial, []float64{phi}
	if GdMeasureDefs[k].Accumulated {
		_, accs, err := ch.TransientAccumulated(ctx, init, ts)
		if err != nil {
			return 0, err
		}
		return r.value(k, nil, accs[0])
	}
	pis, err := ch.Transient(ctx, init, ts)
	if err != nil {
		return 0, err
	}
	return r.value(k, pis[0], nil)
}

// MeasuresSeriesContext solves the RMGd measures for every duration in
// phis (unsorted input is aligned with the output) with one shared
// incremental propagation: a single combined transient+accumulated solver
// pass per gap of the sorted grid serves every measure of every point,
// instead of the per-measure full-horizon solves MeasuresContext spends
// per φ. The propagation runs inside one "mdcd.RMGd.measures_series"
// span.
func (r *RMGd) MeasuresSeriesContext(ctx context.Context, phis []float64) ([]GdMeasures, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMGd.measures_series")
	defer sp.End()
	sp.SetInt("points", int64(len(phis)))
	pis, accs, err := r.Space.Chain.TransientAccumulated(ctx, r.Space.Initial, phis)
	if err != nil {
		return nil, err
	}
	out := make([]GdMeasures, len(phis))
	for i, phi := range phis {
		var v [NumGdMeasures]float64
		for k := range GdMeasureDefs {
			if v[k], err = r.value(k, pis[i], accs[i]); err != nil {
				return nil, fmt.Errorf("mdcd: measures at phi=%g: %w", phi, err)
			}
		}
		out[i] = AssembleGdMeasures(phi, v)
	}
	return out, nil
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
