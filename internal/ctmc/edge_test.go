package ctmc

import (
	"math"
	"testing"

	"guardedop/internal/sparse"
)

// Uniformization stops early once its iterates converge; the answer must
// match the dense matrix exponential, which has no such detection.
func TestUniformizationWithoutSteadyStateDetection(t *testing.T) {
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	pi0, _ := c.PointMass(0)
	tt := 5.0
	with, err := c.TransientUniformization(pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	without, err := c.TransientExpm(pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(with, without) > 1e-10 {
		t.Errorf("steady-state detection changed the answer: %v vs %v", with, without)
	}
}

func TestExpmRejectsNonSquare(t *testing.T) {
	if _, err := Expm(sparse.NewDense(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestExpmEmptyAndIdentityCases(t *testing.T) {
	e, err := Expm(sparse.NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 0 {
		t.Errorf("exp of empty = %dx%d", e.Rows(), e.Cols())
	}
	// exp(0) = I.
	z, err := Expm(sparse.NewDense(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if math.Abs(z.At(r, c)-want) > 1e-14 {
				t.Errorf("exp(0)[%d][%d] = %v", r, c, z.At(r, c))
			}
		}
	}
}

func TestExpmKnownScalarCase(t *testing.T) {
	// exp([[a]]) = [[e^a]], including a norm large enough to force scaling.
	for _, a := range []float64{0.5, -2, 40} {
		m := sparse.NewDense(1, 1)
		m.Set(0, 0, a)
		e, err := Expm(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e.At(0, 0)-math.Exp(a)) > 1e-9*math.Exp(a) {
			t.Errorf("exp(%v) = %v, want %v", a, e.At(0, 0), math.Exp(a))
		}
	}
}

func TestExpmNilpotentExact(t *testing.T) {
	// For nilpotent N (strictly upper triangular), exp(N) = I + N + N²/2.
	n := sparse.NewDense(3, 3)
	n.Set(0, 1, 2)
	n.Set(1, 2, 3)
	e, err := Expm(n)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2, 3}, {0, 1, 3}, {0, 0, 1}}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if math.Abs(e.At(r, c)-want[r][c]) > 1e-12 {
				t.Errorf("exp(N)[%d][%d] = %v, want %v", r, c, e.At(r, c), want[r][c])
			}
		}
	}
}

func TestClampProbabilities(t *testing.T) {
	// Tiny negatives are clipped and the vector renormalized.
	v := []float64{-1e-12, 0.5, 0.5}
	clampProbabilities(v)
	if v[0] != 0 {
		t.Errorf("tiny negative not clipped: %v", v[0])
	}
	if math.Abs(sparse.Sum(v)-1) > 1e-9 {
		t.Errorf("not renormalized: sum=%v", sparse.Sum(v))
	}
	// Large negatives are left visible (solver-bug canary).
	w := []float64{-0.5, 1.5}
	clampProbabilities(w)
	if w[0] != -0.5 {
		t.Errorf("large negative papered over: %v", w)
	}
}

func TestAccumulatedExpmZeroTime(t *testing.T) {
	c := twoState(t, 1, 1)
	pi0, _ := c.PointMass(0)
	acc, err := c.AccumulatedExpm(pi0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc[0] != 0 || acc[1] != 0 {
		t.Errorf("accumulated at 0 = %v, want zeros", acc)
	}
}

func TestGeneratorAccessors(t *testing.T) {
	c := twoState(t, 3, 1)
	if c.NumStates() != 2 {
		t.Errorf("NumStates = %d", c.NumStates())
	}
	if c.q != 3 {
		t.Errorf("max exit rate = %v, want 3", c.q)
	}
	if c.Generator().At(0, 1) != 3 {
		t.Errorf("Generator()(0,1) = %v", c.Generator().At(0, 1))
	}
}

func TestAutoSelectionConsistency(t *testing.T) {
	// The same chain solved just below and just above the uniformization
	// budget must agree (the auto-switch must be seamless).
	c := twoState(t, 50, 10)
	pi0, _ := c.PointMass(0)
	// q*t around the budget boundary: q ≈ 50, so t = budget/50.
	tBoundary := uniformizationBudget / 50
	below, err := transientAt(c, pi0, tBoundary*0.99)
	if err != nil {
		t.Fatal(err)
	}
	above, err := transientAt(c, pi0, tBoundary*1.01)
	if err != nil {
		t.Fatal(err)
	}
	// Both are (essentially) the stationary distribution at these horizons.
	if sparse.L1Dist(below, above) > 1e-9 {
		t.Errorf("method switch produced inconsistent results: %v vs %v", below, above)
	}
}
