package ctmc

import (
	"errors"
	"fmt"
	"math"

	"guardedop/internal/sparse"
)

// Chain is a continuous-time Markov chain over states 0..N-1.
type Chain struct {
	n   int
	gen *sparse.CSR // generator matrix Q, rows sum to zero
	q   float64     // uniformization rate: max |Q_ii| (cached)
}

// generatorRowSumTol bounds the acceptable deviation of a generator row sum
// from zero, relative to the magnitude of the row's diagonal entry.
const generatorRowSumTol = 1e-9

// New validates the generator held in the builder and returns the chain.
//
// Validation enforces the generator properties: a square matrix whose
// off-diagonal entries are non-negative and whose rows sum to (numerically)
// zero. Rows of an absorbing state are all zero, which trivially satisfies
// both conditions.
func New(gen *sparse.COO) (*Chain, error) {
	if gen.Rows() != gen.Cols() {
		return nil, fmt.Errorf("ctmc: generator must be square, got %dx%d", gen.Rows(), gen.Cols())
	}
	csr := gen.ToCSR()
	n := csr.Rows()
	q := 0.0
	for r := 0; r < n; r++ {
		sum, diag := 0.0, 0.0
		var badCol int
		bad := false
		csr.Row(r, func(c int, v float64) {
			sum += v
			if c == r {
				diag = v
			} else if v < 0 && !bad {
				bad, badCol = true, c
			}
		})
		if bad {
			return nil, fmt.Errorf("ctmc: negative off-diagonal rate at (%d,%d)", r, badCol)
		}
		if diag > 0 {
			return nil, fmt.Errorf("ctmc: positive diagonal entry at state %d", r)
		}
		tol := generatorRowSumTol * math.Max(1, math.Abs(diag))
		if math.Abs(sum) > tol {
			return nil, fmt.Errorf("ctmc: row %d sums to %g, want 0 (±%g)", r, sum, tol)
		}
		if -diag > q {
			q = -diag
		}
	}
	return &Chain{n: n, gen: csr, q: q}, nil
}

// NewUnchecked builds a chain without validating the generator. It exists
// for callers that deliberately need a malformed chain — above all the
// static-verifier tests in internal/modelcheck, which must exercise
// rejection paths New makes unreachable — and for assembly pipelines whose
// generators are validated elsewhere. Run internal/modelcheck on anything
// built this way before solving; the solvers assume New's invariants.
func NewUnchecked(gen *sparse.COO) *Chain {
	csr := gen.ToCSR()
	n := csr.Rows()
	q := 0.0
	for r := 0; r < n; r++ {
		csr.Row(r, func(c int, v float64) {
			if c == r && -v > q {
				q = -v
			}
		})
	}
	return &Chain{n: n, gen: csr, q: q}
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.n }

// Generator returns the generator matrix. The caller must not mutate it.
func (c *Chain) Generator() *sparse.CSR { return c.gen }

// IsAbsorbing reports whether state s has no outgoing transitions.
func (c *Chain) IsAbsorbing(s int) bool {
	absorbing := true
	c.gen.Row(s, func(cc int, v float64) {
		if cc != s && v > 0 {
			absorbing = false
		}
	})
	return absorbing
}

// AbsorbingStates returns the (sorted) list of absorbing states.
func (c *Chain) AbsorbingStates() []int {
	var out []int
	for s := 0; s < c.n; s++ {
		if c.IsAbsorbing(s) {
			out = append(out, s)
		}
	}
	return out
}

// uniformized returns the DTMC transition matrix P = I + Q/q for the given
// uniformization rate q (which must be >= max_i |Q_ii| and > 0).
func (c *Chain) uniformized(q float64) *sparse.CSR {
	coo := sparse.NewCOO(c.n, c.n)
	for r := 0; r < c.n; r++ {
		coo.Add(r, r, 1)
		c.gen.Row(r, func(cc int, v float64) {
			coo.Add(r, cc, v/q)
		})
	}
	return coo.ToCSR()
}

// checkDistribution validates that pi0 is a probability vector of length n.
func (c *Chain) checkDistribution(pi0 []float64) error {
	if len(pi0) != c.n {
		return fmt.Errorf("ctmc: initial distribution has length %d, want %d", len(pi0), c.n)
	}
	sum := 0.0
	for i, p := range pi0 {
		if p < -1e-12 || math.IsNaN(p) {
			return fmt.Errorf("ctmc: initial distribution entry %d is %g", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ctmc: initial distribution sums to %g, want 1", sum)
	}
	return nil
}

// PointMass returns the distribution concentrated on state s.
func (c *Chain) PointMass(s int) ([]float64, error) {
	if s < 0 || s >= c.n {
		return nil, fmt.Errorf("ctmc: state %d out of range [0,%d)", s, c.n)
	}
	v := make([]float64, c.n)
	v[s] = 1
	return v, nil
}

// errNegativeTime is returned by transient solvers for t < 0.
var errNegativeTime = errors.New("ctmc: negative time horizon")
