package ctmc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// Transient computes π(t) for every time point in ts (which need not be
// sorted; the result is aligned with the input order). A point solve is a
// series of one. Rather than solving from zero for each point, the
// distribution is propagated incrementally between consecutive sorted
// times — for k points this costs one solver pass per gap instead of one
// per horizon, which matters for the long stiff horizons of the
// guarded-operation study. Each gap runs on the engine the chain's
// stiffness and size select, and the whole propagation emits one
// "ctmc.series" span covering every per-gap solver pass, reported to the
// obs scope/tracer the context carries.
func (c *Chain) Transient(ctx context.Context, pi0 []float64, ts []float64) ([][]float64, error) {
	pis, _, err := c.seriesWalk(ctx, pi0, ts, false)
	return pis, err
}

// TransientAccumulated computes both π(t) and L(t) = ∫₀ᵗ π(u)du for every
// time point in ts in a single shared incremental pass (aligned like
// Transient): L(t_k) = L(t_{k−1}) + ∫ over the gap, with π and the gap
// integral read off one solver pass. It is the solver core of the curve
// engine, where every instant-of-time and accumulated reward of a φ-grid
// point is a dot product against these two vectors.
func (c *Chain) TransientAccumulated(ctx context.Context, pi0 []float64, ts []float64) (pis, accs [][]float64, err error) {
	return c.seriesWalk(ctx, pi0, ts, true)
}

// seriesWalk is the shared series engine: it visits the time points in
// sorted order, advancing one distribution (and, when wantAcc is set, one
// running accumulated-sojourn vector) across the gaps between consecutive
// distinct times. Outputs are aligned with the input order; duplicate time
// points receive identical copies.
func (c *Chain) seriesWalk(ctx context.Context, pi0, ts []float64, wantAcc bool) (pis, accs [][]float64, err error) {
	if err := c.checkDistribution(pi0); err != nil {
		return nil, nil, err
	}
	if len(ts) == 0 {
		return nil, nil, nil
	}
	ctx, sp := obs.StartSpan(ctx, "ctmc.series")
	defer sp.End()
	sp.SetInt("states", int64(c.n))
	sp.SetInt("points", int64(len(ts)))
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ts[order[a]] < ts[order[b]] })

	pis = make([][]float64, len(ts))
	if wantAcc {
		accs = make([][]float64, len(ts))
	}
	cur := append([]float64(nil), pi0...)
	var cum []float64
	if wantAcc {
		cum = make([]float64, c.n)
	}
	last := 0.0
	steps := 0
	for _, idx := range order {
		t := ts[idx]
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, nil, fmt.Errorf("%w: t=%g", errNegativeTime, t)
		}
		if dt := t - last; dt > 0 {
			renorm, err := renormalizeDrift(cur, steps)
			if err != nil {
				return nil, nil, err
			}
			next, gapAcc, err := c.solve(ctx, renorm, dt, wantAcc)
			if err != nil {
				return nil, nil, err
			}
			cur = next
			if wantAcc {
				sparse.Axpy(cum, 1, gapAcc)
			}
			steps++
			last = t
		}
		pis[idx] = append([]float64(nil), cur...)
		if wantAcc {
			accs[idx] = append([]float64(nil), cum...)
		}
	}
	sp.SetInt("gaps", int64(steps))
	return pis, accs, nil
}

// Drift bounds for incrementally propagated distributions. Each solver pass
// can misplace probability mass only at round-off scale, so the tolerated
// deviation of the total mass from one grows linearly with the number of
// steps taken: the floor keeps the historical single-step allowance, and
// the per-step budget is orders of magnitude above what one uniformization
// or Padé pass actually loses (≈1e-12) while staying far below any genuine
// solver failure.
const (
	seriesDriftFloor   = 1e-6
	seriesDriftPerStep = 1e-9
)

// renormalizeDrift rescales a propagated distribution back to total mass
// one when the deviation is attributable to round-off growth over the
// steps propagated so far. A deviation beyond the step-scaled budget — or a
// non-finite or non-positive total — is a solver-integrity failure and is
// returned as an error classifiable as robust.ErrNonFinite, instead of
// silently handing the drifted vector to the per-gap solver to be rejected
// mid-series with an unclassifiable message.
func renormalizeDrift(pi []float64, steps int) ([]float64, error) {
	total := 0.0
	for _, v := range pi {
		total += v
	}
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		return nil, fmt.Errorf("ctmc: propagated distribution mass is %g after %d steps: %w",
			total, steps, robust.ErrNonFinite)
	}
	drift := math.Abs(total - 1)
	if drift == 0 {
		return pi, nil
	}
	if tol := seriesDriftFloor + float64(steps)*seriesDriftPerStep; drift > tol {
		return nil, fmt.Errorf("ctmc: propagated distribution mass drifted to %g after %d steps (tolerance %g): %w",
			total, steps, tol, robust.ErrNonFinite)
	}
	scaled := make([]float64, len(pi))
	for i, v := range pi {
		scaled[i] = v / total
	}
	return scaled, nil
}
