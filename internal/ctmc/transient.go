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

// Transient computes π(t) choosing between uniformization and the dense
// matrix exponential based on the stiffness q·t and the chain size.
func (c *Chain) Transient(pi0 []float64, t float64) ([]float64, error) {
	return c.TransientContext(context.Background(), pi0, t)
}

// TransientContext is Transient under a caller-carried context: the
// solver pass reports to the obs scope/tracer the context carries, so
// batch layers attribute the cost to the right run.
func (c *Chain) TransientContext(ctx context.Context, pi0 []float64, t float64) ([]float64, error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		pi, _, err := c.uniformize(ctx, pi0, t, false)
		return pi, err
	}
	return c.transientExpm(ctx, pi0, t)
}

// Accumulated computes ∫₀ᵗ π(u) du with the same automatic method selection
// as Transient.
func (c *Chain) Accumulated(pi0 []float64, t float64) ([]float64, error) {
	return c.AccumulatedContext(context.Background(), pi0, t)
}

// AccumulatedContext is Accumulated under a caller-carried context.
func (c *Chain) AccumulatedContext(ctx context.Context, pi0 []float64, t float64) ([]float64, error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		_, acc, err := c.uniformize(ctx, pi0, t, true)
		return acc, err
	}
	_, acc, err := c.transientAccumulatedExpm(ctx, pi0, t)
	return acc, err
}

// transientAccumulated computes π(t) and L(t) = ∫₀ᵗ π(u)du together in a
// single solver pass: the uniformization iteration produces both for one
// sweep of matrix-vector products, and the dense path reads both off one
// Van Loan augmented exponential. This halves the solver passes of callers
// that need an instant-of-time and an accumulated view at the same horizon
// (the curve engine's per-gap workload).
func (c *Chain) transientAccumulated(ctx context.Context, pi0 []float64, t float64) (pi, acc []float64, err error) {
	if c.q*t <= uniformizationBudget || c.n > denseTransientLimit {
		return c.uniformize(ctx, pi0, t, true)
	}
	return c.transientAccumulatedExpm(ctx, pi0, t)
}

// TransientReward returns Σ_s rates[s]·π_s(t): the expected instant-of-time
// reward at t for the rate-reward vector rates.
func (c *Chain) TransientReward(pi0 []float64, t float64, rates []float64) (float64, error) {
	return c.TransientRewardContext(context.Background(), pi0, t, rates)
}

// TransientRewardContext is TransientReward under a caller-carried context.
func (c *Chain) TransientRewardContext(ctx context.Context, pi0 []float64, t float64, rates []float64) (float64, error) {
	pi, err := c.TransientContext(ctx, pi0, t)
	if err != nil {
		return 0, err
	}
	return dotChecked(rates, pi)
}

// AccumulatedReward returns Σ_s rates[s]·∫₀ᵗ π_s(u)du: the expected
// accumulated interval-of-time reward over [0, t].
func (c *Chain) AccumulatedReward(pi0 []float64, t float64, rates []float64) (float64, error) {
	return c.AccumulatedRewardContext(context.Background(), pi0, t, rates)
}

// AccumulatedRewardContext is AccumulatedReward under a caller-carried
// context.
func (c *Chain) AccumulatedRewardContext(ctx context.Context, pi0 []float64, t float64, rates []float64) (float64, error) {
	acc, err := c.AccumulatedContext(ctx, pi0, t)
	if err != nil {
		return 0, err
	}
	return dotChecked(rates, acc)
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

func errRewardLength(got, want int) error {
	return fmt.Errorf("ctmc: reward vector has length %d, want %d", got, want)
}

func dotChecked(rates, pi []float64) (float64, error) {
	if len(rates) != len(pi) {
		return 0, errRewardLength(len(rates), len(pi))
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
