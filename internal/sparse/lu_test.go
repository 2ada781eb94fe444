package sparse

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"guardedop/internal/robust"
)

func TestLUSolveKnownSystem(t *testing.T) {
	// A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3]
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	_, err := SolveDense(a, []float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewDense(2, 3)); err == nil {
		t.Fatal("FactorLU on non-square matrix returned nil error")
	}
}

func TestLUSolveDimensionMismatch(t *testing.T) {
	f, err := FactorLU(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("Solve with wrong-length b returned nil error")
	}
}

// Property: for random well-conditioned-ish systems, A * Solve(A, b) == b.
func TestLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := NewDense(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				a.Set(r, c, rng.NormFloat64())
			}
			// Diagonal boost keeps the matrix comfortably non-singular.
			a.Set(r, r, a.At(r, r)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		res := mulVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatrixIdentityGivesInverse(t *testing.T) {
	a := NewDense(3, 3)
	vals := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	for r := range vals {
		for c := range vals[r] {
			a.Set(r, c, vals[r][c])
		}
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.SolveMatrix(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if math.Abs(prod.At(r, c)-want) > 1e-10 {
				t.Fatalf("A*inv(A) at (%d,%d) = %v, want %v", r, c, prod.At(r, c), want)
			}
		}
	}
}

func TestLUSingularNamesPivotColumn(t *testing.T) {
	// Columns 0 and 1 are independent; column 2 is a copy of column 1, so
	// elimination hits the zero pivot in column 2.
	a := NewDense(3, 3)
	vals := [][]float64{{1, 2, 2}, {0, 3, 3}, {0, 5, 5}}
	for r := range vals {
		for c := range vals[r] {
			a.Set(r, c, vals[r][c])
		}
	}
	_, err := FactorLU(a)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if !strings.Contains(err.Error(), "column 2") {
		t.Errorf("singular error %q does not name pivot column 2", err)
	}
}

func TestLUCondEstIdentity(t *testing.T) {
	f, err := FactorLU(Identity(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.CondEst(); got < 1 || got > 2 {
		t.Errorf("CondEst(I) = %g, want ~1", got)
	}
}

// hilbert returns the notoriously ill-conditioned Hilbert matrix.
func hilbert(n int) *Dense {
	a := NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			a.Set(r, c, 1/float64(r+c+1))
		}
	}
	return a
}

func TestLUCondEstGrowsWithIllConditioning(t *testing.T) {
	f4, err := FactorLU(hilbert(4))
	if err != nil {
		t.Fatal(err)
	}
	f10, err := FactorLU(hilbert(10))
	if err != nil {
		t.Fatal(err)
	}
	c4, c10 := f4.CondEst(), f10.CondEst()
	// True kappa_inf: H4 ~ 2.8e4, H10 ~ 3.5e13. The probe estimate is a
	// lower bound; requiring orders of magnitude keeps the test honest
	// without over-pinning it.
	if c4 < 1e3 {
		t.Errorf("CondEst(H4) = %g, want > 1e3", c4)
	}
	if c10 < 1e9 {
		t.Errorf("CondEst(H10) = %g, want > 1e9", c10)
	}
	if c10 < 1e4*c4 {
		t.Errorf("CondEst did not grow with ill-conditioning: H4 %g vs H10 %g", c4, c10)
	}
}

func TestLUSolveRejectsNonFiniteRHS(t *testing.T) {
	f, err := FactorLU(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Solve([]float64{1, math.NaN()})
	if !errors.Is(err, robust.ErrNonFinite) {
		t.Fatalf("NaN rhs: err = %v, want ErrNonFinite", err)
	}
}

func TestLUSolveRejectsOverflowingSolution(t *testing.T) {
	// A tiny diagonal entry drives the solution past MaxFloat64.
	a := NewDense(2, 2)
	a.Set(0, 0, 5e-324)
	a.Set(1, 1, 1)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Solve([]float64{1e300, 1})
	if !errors.Is(err, robust.ErrNonFinite) {
		t.Fatalf("overflowing solve: err = %v, want ErrNonFinite", err)
	}
}

func TestLUSolveIllConditionedResidual(t *testing.T) {
	// White-box: point the factorisation's residual matrix at a different
	// matrix than the one factored, so Ax-b is genuinely large. This is
	// the stand-in for a factorisation corrupted by rounding: the residual
	// guard, not the factorisation, must catch it.
	good := NewDense(2, 2)
	good.Set(0, 0, 1)
	good.Set(1, 1, 1)
	f, err := FactorLU(good)
	if err != nil {
		t.Fatal(err)
	}
	other := NewDense(2, 2)
	other.Set(0, 0, 3)
	other.Set(0, 1, 1)
	other.Set(1, 0, 1)
	other.Set(1, 1, 4)
	f.a = other
	f.normInfA = other.InfNorm()
	_, err = f.Solve([]float64{1, 2})
	if !errors.Is(err, robust.ErrIllConditioned) {
		t.Fatalf("bad-residual solve: err = %v, want ErrIllConditioned", err)
	}
}

func TestLUResidualExactSolution(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 4)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.Residual([]float64{3, 0.5}, []float64{6, 2}); r != 0 {
		t.Errorf("Residual(exact) = %g, want 0", r)
	}
	if r := f.Residual([]float64{3, 0.5}, []float64{6, 3}); r != 1 {
		t.Errorf("Residual(off-by-one) = %g, want 1", r)
	}
}

func TestLUSolveHilbertRefined(t *testing.T) {
	// Hilbert(8) is ill-conditioned (~1e10) but still solvable in double
	// precision with a small backward error; the guard must NOT fire, and
	// refinement should deliver a tiny residual.
	n := 8
	h := hilbert(n)
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	b := mulVec(h, want)
	f, err := FactorLU(h)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Hilbert(8) solve rejected: %v", err)
	}
	if be := f.backwardError(x, b); be > 1e-10 {
		t.Errorf("backward error after refinement = %g", be)
	}
}

// mulVec returns the matrix-vector product m·x.
func mulVec(m *Dense, x []float64) []float64 {
	out := make([]float64, m.Rows())
	for r := range out {
		for c, v := range m.RowSlice(r) {
			out[r] += v * x[c]
		}
	}
	return out
}
