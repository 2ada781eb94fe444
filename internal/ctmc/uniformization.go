package ctmc

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// Uniformization constants.
const (
	// uniformEpsilon is the permitted Poisson truncation error.
	uniformEpsilon = 1e-12
	// uniformRatePadding multiplies the uniformization rate above
	// max|Q_ii| to keep the DTMC aperiodic.
	uniformRatePadding = 1.02
	// uniformSteadyTol is the steady-state detection threshold: the
	// vector iteration stops once successive DTMC iterates differ by less
	// than this in L1, folding the remaining Poisson mass onto the
	// converged vector.
	uniformSteadyTol = 1e-14
)

// TransientUniformization computes the state-probability vector π(t) from
// initial distribution pi0 by uniformization. It also works for t == 0
// (returning a copy of pi0). Transient selects this engine automatically
// for moderate q·t; this entry point forces it.
func (c *Chain) TransientUniformization(pi0 []float64, t float64) ([]float64, error) {
	pi, _, err := c.uniformize(context.Background(), pi0, t, false)
	return pi, err
}

// AccumulatedUniformization computes L(t) = ∫₀ᵗ π(u) du, the vector of
// expected total sojourn times per state over [0, t], by the uniformization
// complementary-CDF formula:
//
//	L(t) = (1/q) Σ_k (1 − F(k; qt)) · π₀ Pᵏ
//
// where F is the Poisson CDF and P the uniformized DTMC matrix.
func (c *Chain) AccumulatedUniformization(pi0 []float64, t float64) ([]float64, error) {
	_, acc, err := c.uniformize(context.Background(), pi0, t, true)
	return acc, err
}

// uniformize runs the shared vector iteration. When wantAccumulated is true
// the second return value holds ∫₀ᵗ π(u)du; the first holds π(t) always.
// One call with t > 0 is one solver pass: it counts against the context's
// solve-pass scope and, when a tracer is attached, emits one
// "ctmc.uniformize" span annotated with the state count, the Poisson
// truncation point, and the number of vector iterations actually spent.
// A zero-length solve returns a copy of pi0 and, as on the dense engines,
// is no pass.
func (c *Chain) uniformize(ctx context.Context, pi0 []float64, t float64, wantAccumulated bool) ([]float64, []float64, error) {
	if err := c.checkDistribution(pi0); err != nil {
		return nil, nil, err
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, nil, fmt.Errorf("%w: t=%g", errNegativeTime, t)
	}
	pi := append([]float64(nil), pi0...)
	acc := make([]float64, c.n)
	if t == 0 {
		return pi, acc, nil
	}
	countSolveOp(ctx)
	_, sp := obs.StartSpan(ctx, "ctmc.uniformize")
	defer sp.End()
	sp.SetInt("states", int64(c.n))
	sp.SetFloat("t", t)
	iterations := 0
	defer func() { sp.SetInt("iterations", int64(iterations)) }()

	q := c.q * uniformRatePadding
	if q == 0 {
		// All states absorbing: distribution never moves.
		if wantAccumulated {
			for i := range acc {
				acc[i] = pi0[i] * t
			}
		}
		return pi, acc, nil
	}

	win, err := newPoissonWindow(q*t, uniformEpsilon)
	if err != nil {
		return nil, nil, err
	}
	sp.SetInt("poisson_right", int64(win.Right))

	p := c.uniformized(q)
	v := append([]float64(nil), pi0...) // v_k = pi0 * P^k
	next := make([]float64, c.n)
	out := make([]float64, c.n)

	// cdf tracks F(k) over the truncated window; accWeight tracks
	// Σ_{j<=k} (1-F(j))/q so steady-state folding can use t - accWeight.
	cdf := 0.0
	accWeight := 0.0
	for k := 0; ; k++ {
		wk := win.PMF(k)
		cdf += wk
		sparse.Axpy(out, wk, v)
		if wantAccumulated {
			ccdf := 1 - cdf
			if ccdf < 0 {
				ccdf = 0
			}
			sparse.Axpy(acc, ccdf/q, v)
			accWeight += ccdf / q
		}
		if k >= win.Right {
			break
		}
		p.VecMul(next, v)
		iterations++
		if sparse.L1Dist(next, v) < uniformSteadyTol {
			sp.Event("steady_state_detected")
			// The DTMC iterates have converged; fold all remaining
			// Poisson mass (and accumulated weight) onto v.
			sparse.Axpy(out, 1-cdf, next)
			if wantAccumulated {
				rem := t - accWeight
				if rem > 0 {
					sparse.Axpy(acc, rem, next)
				}
			}
			copy(pi, out)
			return pi, acc, checkUniformized(pi, acc, wantAccumulated)
		}
		v, next = next, v
	}
	copy(pi, out)
	return pi, acc, checkUniformized(pi, acc, wantAccumulated)
}

// checkUniformized guards the uniformization outputs against NaN/Inf
// contamination (which a pathological generator can smuggle through the
// vector iteration without tripping any intermediate check).
func checkUniformized(pi, acc []float64, wantAccumulated bool) error {
	if err := robust.CheckFiniteSlice("pi", pi); err != nil {
		return fmt.Errorf("ctmc: uniformization output: %w", err)
	}
	if wantAccumulated {
		if err := robust.CheckFiniteSlice("acc", acc); err != nil {
			return fmt.Errorf("ctmc: uniformization accumulated output: %w", err)
		}
	}
	return nil
}
