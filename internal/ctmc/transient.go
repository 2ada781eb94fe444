package ctmc

import (
	"context"
	"fmt"

	"guardedop/internal/robust"
)

// uniformizationBudget is the largest q·t for which uniformization is chosen
// automatically. Beyond it (stiff horizons) the dense matrix exponential is
// asymptotically far cheaper: O(log2(qt)·n³) instead of O(qt·nnz).
const uniformizationBudget = 2e5

// denseTransientLimit is the largest state count for which the dense matrix
// exponential path is permitted under automatic selection.
const denseTransientLimit = 1024

// solve is the one automatic engine selection: it advances pi0 by t on
// uniformization for moderate stiffness q·t or chains too large for the
// dense path, and on the dense matrix exponential otherwise. With wantAcc
// it also returns L(t) = ∫₀ᵗ π(u)du from the same solver pass (one
// uniformization sweep, or one Van Loan augmented exponential); without
// it acc carries nothing.
func (c *Chain) solve(ctx context.Context, pi0 []float64, t float64, wantAcc bool) (pi, acc []float64, err error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		return c.uniformize(ctx, pi0, t, wantAcc)
	}
	if wantAcc {
		return c.transientAccumulatedExpm(ctx, pi0, t)
	}
	pi, err = c.transientExpm(ctx, pi0, t)
	return pi, nil, err
}

// SteadyStateRewards returns Σ_s r[s]·π_s for each rate-reward vector r in
// rates, against one solve of the stationary distribution π.
func (c *Chain) SteadyStateRewards(rates ...[]float64) ([]float64, error) {
	pi, err := c.SteadyState()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rates))
	for i, r := range rates {
		if out[i], err = dotChecked(r, pi); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func dotChecked(rates, pi []float64) (float64, error) {
	if len(rates) != len(pi) {
		return 0, fmt.Errorf("ctmc: reward vector has length %d, want %d", len(rates), len(pi))
	}
	sum := 0.0
	for i, r := range rates {
		sum += r * pi[i]
	}
	if err := robust.CheckFinite("reward", sum); err != nil {
		return 0, fmt.Errorf("ctmc: %w", err)
	}
	return sum, nil
}
