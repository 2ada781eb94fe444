package ctmc

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/sparse"
)

// twoState builds the classic two-state chain 0 --a--> 1, 1 --b--> 0.
func twoState(t *testing.T, a, b float64) *Chain {
	t.Helper()
	g := sparse.NewCOO(2, 2)
	g.Add(0, 0, -a)
	g.Add(0, 1, a)
	g.Add(1, 0, b)
	g.Add(1, 1, -b)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// transientAt solves π(t) as a series of one.
func transientAt(c *Chain, pi0 []float64, t float64) ([]float64, error) {
	pis, err := c.Transient(context.Background(), pi0, []float64{t})
	if err != nil {
		return nil, err
	}
	return pis[0], nil
}

// accumulatedAt solves L(t) = ∫₀ᵗ π(u)du as a series of one.
func accumulatedAt(c *Chain, pi0 []float64, t float64) ([]float64, error) {
	_, accs, err := c.TransientAccumulated(context.Background(), pi0, []float64{t})
	if err != nil {
		return nil, err
	}
	return accs[0], nil
}

// birthDeath builds an M/M/1-like truncated birth-death chain on n states.
func birthDeath(t *testing.T, n int, lambda, mu float64) *Chain {
	t.Helper()
	g := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			g.Add(i, i+1, lambda)
			g.Add(i, i, -lambda)
		}
		if i > 0 {
			g.Add(i, i-1, mu)
			g.Add(i, i, -mu)
		}
	}
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGenerators(t *testing.T) {
	tests := []struct {
		name  string
		build func() *sparse.COO
	}{
		{"non-square", func() *sparse.COO {
			return sparse.NewCOO(2, 3)
		}},
		{"negative off-diagonal", func() *sparse.COO {
			g := sparse.NewCOO(2, 2)
			g.Add(0, 1, -1)
			g.Add(0, 0, 1)
			return g
		}},
		{"positive diagonal", func() *sparse.COO {
			g := sparse.NewCOO(2, 2)
			g.Add(0, 0, 1)
			g.Add(0, 1, -1)
			return g
		}},
		{"row sum nonzero", func() *sparse.COO {
			g := sparse.NewCOO(2, 2)
			g.Add(0, 1, 2)
			g.Add(0, 0, -1)
			return g
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.build()); err == nil {
				t.Fatal("New accepted an invalid generator")
			}
		})
	}
}

func TestAbsorbingStateDetection(t *testing.T) {
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, 1)
	g.Add(0, 0, -1)
	g.Add(1, 2, 2)
	g.Add(1, 1, -2)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsAbsorbing(0) || c.IsAbsorbing(1) || !c.IsAbsorbing(2) {
		t.Errorf("absorbing flags = (%v,%v,%v), want (false,false,true)",
			c.IsAbsorbing(0), c.IsAbsorbing(1), c.IsAbsorbing(2))
	}
	abs := c.AbsorbingStates()
	if len(abs) != 1 || abs[0] != 2 {
		t.Errorf("AbsorbingStates = %v, want [2]", abs)
	}
}

// Analytic transient solution for the two-state chain:
// P(in 1 at t | start 0) = a/(a+b) (1 - e^{-(a+b)t}).
func TestTwoStateTransientAnalytic(t *testing.T) {
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	pi0, _ := c.PointMass(0)
	for _, tt := range []float64{0, 0.01, 0.1, 0.5, 1, 5, 50} {
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tt))
		got, err := c.TransientUniformization(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[1]-want) > 1e-10 {
			t.Errorf("t=%v: P(state 1) = %.15f, want %.15f", tt, got[1], want)
		}
		gotE, err := c.TransientExpm(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotE[1]-want) > 1e-10 {
			t.Errorf("t=%v: expm P(state 1) = %.15f, want %.15f", tt, gotE[1], want)
		}
	}
}

// Analytic accumulated solution for the two-state chain:
// ∫₀ᵗ P(in 1 at u)du = a/(a+b)·t - a/(a+b)²·(1 - e^{-(a+b)t}).
func TestTwoStateAccumulatedAnalytic(t *testing.T) {
	a, b := 2.0, 5.0
	c := twoState(t, a, b)
	pi0, _ := c.PointMass(0)
	for _, tt := range []float64{0, 0.2, 1, 4, 20} {
		s := a + b
		want := a/s*tt - a/(s*s)*(1-math.Exp(-s*tt))
		got, err := c.AccumulatedUniformization(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[1]-want) > 1e-9 {
			t.Errorf("t=%v: unif L_1 = %.12f, want %.12f", tt, got[1], want)
		}
		gotE, err := c.AccumulatedExpm(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotE[1]-want) > 1e-8 {
			t.Errorf("t=%v: expm L_1 = %.12f, want %.12f", tt, gotE[1], want)
		}
	}
}

func TestAccumulatedSumsToT(t *testing.T) {
	// Σ_s L_s(t) == t for any chain (total time is conserved).
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	for _, tt := range []float64{0.5, 3, 17} {
		acc, err := c.AccumulatedUniformization(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sparse.Sum(acc)-tt) > 1e-8 {
			t.Errorf("sum L(t) = %v, want %v", sparse.Sum(acc), tt)
		}
		accE, err := c.AccumulatedExpm(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sparse.Sum(accE)-tt) > 1e-7 {
			t.Errorf("expm sum L(t) = %v, want %v", sparse.Sum(accE), tt)
		}
	}
}

func TestTransientRejectsBadInput(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.TransientUniformization([]float64{1}, 1); err == nil {
		t.Error("accepted wrong-length distribution")
	}
	if _, err := c.TransientUniformization([]float64{0.5, 0.4}, 1); err == nil {
		t.Error("accepted non-normalized distribution")
	}
	pi0, _ := c.PointMass(0)
	if _, err := c.TransientUniformization(pi0, -1); err == nil {
		t.Error("accepted negative time")
	}
	if _, err := c.TransientExpm(pi0, math.Inf(1)); err == nil {
		t.Error("accepted infinite time")
	}
}

func TestAllAbsorbingChainTransient(t *testing.T) {
	g := sparse.NewCOO(2, 2)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0 := []float64{0.3, 0.7}
	got, err := c.TransientUniformization(pi0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.3 || got[1] != 0.7 {
		t.Errorf("frozen chain moved: %v", got)
	}
	acc, err := c.AccumulatedUniformization(pi0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc[0]-3) > 1e-12 || math.Abs(acc[1]-7) > 1e-12 {
		t.Errorf("frozen chain accumulated %v, want [3 7]", acc)
	}
}

func TestPointMassRange(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.PointMass(2); err == nil {
		t.Error("PointMass accepted out-of-range state")
	}
	if _, err := c.PointMass(-1); err == nil {
		t.Error("PointMass accepted negative state")
	}
}
