package ctmc

import (
	"errors"
	"fmt"

	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// Steady-state solver constants.
const (
	// directSteadyStateLimit is the largest chain solved by dense LU;
	// larger chains run SOR.
	directSteadyStateLimit = 512
	// sorTolerance is the L1 convergence threshold of the SOR sweeps.
	sorTolerance = 1e-12
	// sorMaxIterations caps the SOR sweeps.
	sorMaxIterations = 200000
)

// ErrNotErgodic is returned when an iterative steady-state solver cannot
// make progress, typically because the chain is reducible. It wraps
// robust.ErrNotConverged so callers can classify it with the shared
// taxonomy.
var ErrNotErgodic = fmt.Errorf("ctmc: steady-state iteration failed to converge (chain may be reducible): %w", robust.ErrNotConverged)

// SteadyState solves πQ = 0 with Σπ = 1 by dense LU for chains of up to
// directSteadyStateLimit states and by Gauss-Seidel (SOR) sweeps above
// that. The chain must have a unique stationary distribution (one
// recurrent class).
func (c *Chain) SteadyState() ([]float64, error) {
	if c.n == 0 {
		return nil, errors.New("ctmc: empty chain")
	}
	if c.n <= directSteadyStateLimit {
		return c.steadyDirect()
	}
	return c.steadySOR()
}

// steadyDirect solves the transposed system Qᵀ x = 0 with the last equation
// replaced by the normalization Σx = 1, by dense LU.
func (c *Chain) steadyDirect() ([]float64, error) {
	n := c.n
	a := sparse.NewDense(n, n)
	for r := 0; r < n; r++ {
		c.gen.Row(r, func(cc int, v float64) {
			a.Set(cc, r, v) // transpose
		})
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	x, err := sparse.SolveDense(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: direct steady-state solve failed: %w", err)
	}
	for i, v := range x {
		if v < 0 {
			if v < -1e-8 {
				return nil, fmt.Errorf("ctmc: direct steady-state produced negative probability %g at state %d", v, i)
			}
			x[i] = 0
		}
	}
	sparse.Normalize(x)
	return x, nil
}

// steadySOR runs Gauss-Seidel sweeps on πQ = 0 using the column-oriented
// form x_j = −(Σ_{i≠j} x_i Q_ij) / Q_jj, renormalizing after every sweep.
func (c *Chain) steadySOR() ([]float64, error) {
	n := c.n
	qt := c.gen.Transpose() // row j of qt holds column j of Q
	diag := make([]float64, n)
	for j := 0; j < n; j++ {
		diag[j] = c.gen.At(j, j)
		if diag[j] == 0 {
			return nil, fmt.Errorf("%w: state %d is absorbing", ErrNotErgodic, j)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	prev := make([]float64, n)
	for iter := 0; iter < sorMaxIterations; iter++ {
		copy(prev, x)
		for j := 0; j < n; j++ {
			sum := 0.0
			qt.Row(j, func(i int, v float64) {
				if i != j {
					sum += x[i] * v
				}
			})
			nx := -sum / diag[j]
			if nx < 0 {
				nx = 0
			}
			x[j] = nx
		}
		if sparse.Normalize(x) == 0 {
			return nil, ErrNotErgodic
		}
		if sparse.L1Dist(x, prev) < sorTolerance {
			if err := robust.CheckFiniteSlice("pi", x); err != nil {
				return nil, fmt.Errorf("ctmc: SOR steady state: %w", err)
			}
			return x, nil
		}
	}
	return nil, ErrNotErgodic
}
