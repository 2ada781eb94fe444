package ctmc

import (
	"math"
	"testing"
)

// FuzzPoissonWindow drives the truncated-Poisson computation across the
// full mean range the solvers use, checking normalization, non-negativity
// and window sanity for arbitrary inputs.
func FuzzPoissonWindow(f *testing.F) {
	f.Add(3.7, 1e-12)
	f.Add(0.0, 1e-10)
	f.Add(1e5, 1e-12)
	f.Add(0.004, 1e-9)
	f.Fuzz(func(t *testing.T, mean, eps float64) {
		win, err := newPoissonWindow(mean, eps)
		if err != nil {
			return // invalid inputs must be reported, not panic
		}
		if win.Left < 0 || win.Right < win.Left {
			t.Fatalf("bad window [%d, %d] for mean %g", win.Left, win.Right, mean)
		}
		sum := 0.0
		for _, w := range win.Weights {
			if w < 0 || math.IsNaN(w) {
				t.Fatalf("bad weight %g for mean %g", w, mean)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %g for mean %g", sum, mean)
		}
	})
}

// FuzzTwoStateTransient checks the closed-form two-state solution for
// arbitrary positive rates and horizons — the solver must agree with the
// formula wherever the inputs are representable.
func FuzzTwoStateTransient(f *testing.F) {
	f.Add(3.0, 1.0, 0.5)
	f.Add(1e-6, 5e3, 10.0)
	f.Fuzz(func(t *testing.T, a, b, horizon float64) {
		if !(a > 1e-9 && a < 1e6) || !(b > 1e-9 && b < 1e6) || !(horizon >= 0 && horizon < 1e4) {
			return
		}
		if a*horizon > 1e7 || b*horizon > 1e7 {
			return // beyond the supported stiffness budget for this fuzz target
		}
		c := twoState(t, a, b)
		pi0, _ := c.PointMass(0)
		got, err := transientAt(c, pi0, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want := a / (a + b) * (1 - math.Exp(-(a+b)*horizon))
		if math.Abs(got[1]-want) > 1e-7 {
			t.Fatalf("a=%g b=%g t=%g: P(1) = %.12f, want %.12f", a, b, horizon, got[1], want)
		}
	})
}
