package ctmc

import (
	"errors"
	"math"
	"testing"

	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// steadySolvers names both steady-state engines; SteadyState picks one by
// chain size, so the small test chains call them directly.
func steadySolvers(c *Chain) map[string]func() ([]float64, error) {
	return map[string]func() ([]float64, error){
		"auto":   c.SteadyState,
		"direct": c.steadyDirect,
		"sor":    c.steadySOR,
	}
}

func TestSteadyStateTwoStateAnalytic(t *testing.T) {
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	want1 := a / (a + b)
	for name, solve := range steadySolvers(c) {
		pi, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(pi[1]-want1) > 1e-9 {
			t.Errorf("%s: pi[1] = %.12f, want %.12f", name, pi[1], want1)
		}
	}
}

func TestSteadyStateBirthDeathAnalytic(t *testing.T) {
	// Truncated birth-death: pi_i ∝ (lambda/mu)^i.
	n, lambda, mu := 8, 2.0, 5.0
	c := birthDeath(t, n, lambda, mu)
	rho := lambda / mu
	norm := 0.0
	for i := 0; i < n; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for name, solve := range steadySolvers(c) {
		pi, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < n; i++ {
			want := math.Pow(rho, float64(i)) / norm
			if math.Abs(pi[i]-want) > 1e-8 {
				t.Errorf("%s: pi[%d] = %.12f, want %.12f", name, i, pi[i], want)
			}
		}
	}
}

func TestSteadyStateSORRejectsAbsorbing(t *testing.T) {
	g := sparse.NewCOO(2, 2)
	g.Add(0, 1, 1)
	g.Add(0, 0, -1)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.steadySOR(); !errors.Is(err, ErrNotErgodic) {
		t.Errorf("err = %v, want ErrNotErgodic", err)
	}
}

func TestSteadyStateRewardMatchesManual(t *testing.T) {
	c := twoState(t, 1, 1)
	r, err := c.SteadyStateRewards([]float64{0, 2}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || math.Abs(r[0]-1) > 1e-10 || math.Abs(r[1]-1) > 1e-10 {
		t.Errorf("steady rewards = %v, want [1 1]", r)
	}
	if _, err := c.SteadyStateRewards([]float64{0, 2}, []float64{1}); err == nil {
		t.Error("accepted wrong-length reward vector")
	}
}

// The SOR sweeps (relaxation factor 1, i.e. Gauss-Seidel) that solve
// chains above directSteadyStateLimit must agree with the direct solve.
func TestSORWithRelaxation(t *testing.T) {
	c := birthDeath(t, 10, 1.0, 2.0)
	pi, err := c.steadySOR()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.steadyDirect()
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(pi, ref) > 1e-8 {
		t.Errorf("SOR differs from direct by %g", sparse.L1Dist(pi, ref))
	}
}

func TestAbsorbingAnalysisCompetingRisks(t *testing.T) {
	// State 0 races to absorbing 1 (rate a) and absorbing 2 (rate b).
	a, b := 3.0, 7.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, a)
	g.Add(0, 2, b)
	g.Add(0, 0, -(a + b))
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Absorption probabilities and times are first-passage quantities
	// into the absorbing states.
	pi0, _ := c.PointMass(0)
	if got := c.AbsorbingStates(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("absorbing states = %v, want [1 2]", got)
	}
	_, p1, err := c.MeanFirstPassage(pi0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-a/(a+b)) > 1e-12 {
		t.Errorf("P(absorb in 1) = %v, want %v", p1, a/(a+b))
	}
	mt, p, err := c.MeanFirstPassage(pi0, c.AbsorbingStates())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt-1/(a+b)) > 1e-12 || math.Abs(p-1) > 1e-12 {
		t.Errorf("mean time = %v (P = %v), want %v (1)", mt, p, 1/(a+b))
	}
}

func TestAbsorbingAnalysisTandem(t *testing.T) {
	// 0 -> 1 -> 2 (absorbing); mean time = 1/r0 + 1/r1.
	r0, r1 := 2.0, 5.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, r0)
	g.Add(0, 0, -r0)
	g.Add(1, 2, r1)
	g.Add(1, 1, -r1)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	mt, p, err := c.MeanFirstPassage(pi0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt-(1/r0+1/r1)) > 1e-12 {
		t.Errorf("mean time = %v, want %v", mt, 1/r0+1/r1)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Errorf("P(absorb) = %v, want 1", p)
	}
	// Mass already on the absorbing state counts as absorbed at time 0.
	mt2, p2, err := c.MeanFirstPassage([]float64{0, 0, 1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 1 || mt2 != 0 {
		t.Errorf("start absorbed: P = %v, time = %v, want 1, 0", p2, mt2)
	}
}

func TestTransientAndAccumulatedRewards(t *testing.T) {
	// Rewards on the two-state chain: rate 1 in state 0, 0 in state 1.
	a, b := 3.0, 1.0
	c := twoState(t, a, b)
	pi0, _ := c.PointMass(0)
	tt := 0.7
	s := a + b
	p0 := b/s + a/s*math.Exp(-s*tt)
	pi, err := transientAt(c, pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dotChecked([]float64{1, 0}, pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-p0) > 1e-10 {
		t.Errorf("transient reward = %v, want %v", r, p0)
	}
	// Accumulated time in state 0 over [0,t].
	wantAcc := b/s*tt + a/(s*s)*(1-math.Exp(-s*tt))
	acc, err := accumulatedAt(c, pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := dotChecked([]float64{1, 0}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra-wantAcc) > 1e-9 {
		t.Errorf("accumulated reward = %v, want %v", ra, wantAcc)
	}
}

func TestAccumulatedUntilAbsorptionMatchesLongHorizon(t *testing.T) {
	// For an absorbing chain, reward until absorption equals the t->inf
	// limit of the accumulated interval reward. Here the chain spends
	// 1/mu in state 0 and 1/lambda in state 1 before absorbing.
	mu, lambda := 1e-2, 5.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, mu)
	g.Add(0, 0, -mu)
	g.Add(1, 2, lambda)
	g.Add(1, 1, -lambda)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	rates := []float64{1, 0.5, 0}
	exact := rates[0]/mu + rates[1]/lambda
	acc, err := accumulatedAt(c, pi0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	longRun, err := dotChecked(rates, acc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-longRun) > 1e-6*exact {
		t.Errorf("until-absorption %v vs long-horizon %v", exact, longRun)
	}
}

func TestErrNotErgodicClassifiesAsNotConverged(t *testing.T) {
	if !errors.Is(ErrNotErgodic, robust.ErrNotConverged) {
		t.Error("ErrNotErgodic does not wrap robust.ErrNotConverged")
	}
}
