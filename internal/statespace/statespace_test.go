package statespace

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/san"
	"guardedop/internal/sparse"
)

// cycleModel builds a 2-state cycle p0 <-> p1 with rates a and b.
func cycleModel(a, b float64) (*san.Model, *san.Place, *san.Place) {
	m := san.NewModel("cycle")
	p0 := m.AddPlace("p0", 1)
	p1 := m.AddPlace("p1", 0)
	fwd := m.AddTimedActivity("fwd", san.ConstRate(a)).AddInputArc(p0, 1)
	fwd.AddCase(san.ConstProb(1)).AddOutputArc(p1, 1)
	bwd := m.AddTimedActivity("bwd", san.ConstRate(b)).AddInputArc(p1, 1)
	bwd.AddCase(san.ConstProb(1)).AddOutputArc(p0, 1)
	return m, p0, p1
}

func TestGenerateTwoStateCycle(t *testing.T) {
	m, _, p1 := cycleModel(3, 1)
	sp, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumStates() != 2 {
		t.Fatalf("NumStates = %d, want 2", sp.NumStates())
	}
	if math.Abs(sparse.Sum(sp.Initial)-1) > 1e-12 {
		t.Errorf("initial distribution sums to %v", sparse.Sum(sp.Initial))
	}
	// Transient solution should match the analytic two-state chain.
	pis, err := sp.Chain.Transient(context.Background(), sp.Initial, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	pi := pis[0]
	var inP1 float64
	for i, mk := range sp.States {
		if mk.Get(p1) == 1 {
			inP1 += pi[i]
		}
	}
	want := 3.0 / 4.0 * (1 - math.Exp(-4*0.5))
	if math.Abs(inP1-want) > 1e-10 {
		t.Errorf("P(p1) = %v, want %v", inP1, want)
	}
}

func TestGenerateCaseSplit(t *testing.T) {
	// p0 --timed, cases 30/70--> a or b (both absorbing): each case
	// becomes its own transition at rate × case probability.
	m := san.NewModel("split")
	p0 := m.AddPlace("p0", 1)
	pa := m.AddPlace("a", 0)
	pb := m.AddPlace("b", 0)
	tact := m.AddTimedActivity("go", san.ConstRate(2)).AddInputArc(p0, 1)
	tact.AddCase(san.ConstProb(0.3)).AddOutputArc(pa, 1)
	tact.AddCase(san.ConstProb(0.7)).AddOutputArc(pb, 1)

	sp, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumStates() != 3 {
		t.Fatalf("NumStates = %d, want 3", sp.NumStates())
	}
	if sp.Initial[0] != 1 || sparse.Sum(sp.Initial) != 1 || sp.States[0].Key() != m.InitialMarking().Key() {
		t.Fatalf("initial distribution %v is not a point mass on the initial marking", sp.Initial)
	}
	idxA := sp.StateIndex(san.Marking{0, 1, 0})
	_, hit, err := sp.Chain.MeanFirstPassage(sp.Initial, []int{idxA})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hit-0.3) > 1e-12 {
		t.Errorf("P(absorb in a) = %v, want 0.3", hit)
	}
}

func TestGenerateMarkingDependentRate(t *testing.T) {
	// A birth-death model with marking-dependent death rate mu*i.
	m := san.NewModel("mmk")
	pop := m.AddPlace("pop", 0)
	lambda, mu := 2.0, 1.0
	capacity := 4
	birth := m.AddTimedActivity("birth", san.ConstRate(lambda)).
		AddInputGate("cap", func(mk san.Marking) bool { return mk.Get(pop) < capacity }, nil)
	birth.AddCase(san.ConstProb(1)).AddOutputArc(pop, 1)
	death := m.AddTimedActivity("death",
		func(mk san.Marking) float64 { return mu * float64(mk.Get(pop)) }).
		AddInputArc(pop, 1)
	death.AddCase(san.ConstProb(1))

	sp, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumStates() != capacity+1 {
		t.Fatalf("NumStates = %d, want %d", sp.NumStates(), capacity+1)
	}
	// Steady state of M/M/inf truncated: pi_i ∝ (lambda/mu)^i / i!.
	pi, err := sp.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	weights := make([]float64, capacity+1)
	norm, fact := 0.0, 1.0
	for i := 0; i <= capacity; i++ {
		if i > 0 {
			fact *= float64(i)
		}
		weights[i] = math.Pow(rho, float64(i)) / fact
		norm += weights[i]
	}
	for i, mk := range sp.States {
		want := weights[mk.Get(pop)] / norm
		if math.Abs(pi[i]-want) > 1e-9 {
			t.Errorf("pi[pop=%d] = %v, want %v", mk.Get(pop), pi[i], want)
		}
	}
}

func TestStateIndex(t *testing.T) {
	m, p0, p1 := cycleModel(1, 1)
	sp, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := m.InitialMarking()
	if sp.StateIndex(mk) == -1 {
		t.Error("initial marking not found")
	}
	mk.Set(p0, 0)
	mk.Set(p1, 1)
	if sp.StateIndex(mk) == -1 {
		t.Error("second marking not found")
	}
	mk.Set(p1, 7)
	if sp.StateIndex(mk) != -1 {
		t.Error("unreachable marking reported as reachable")
	}
}

func TestGenerateMaxStatesExceeded(t *testing.T) {
	// Unbounded birth process must trip the state cap.
	m := san.NewModel("unbounded")
	pop := m.AddPlace("pop", 0)
	birth := m.AddTimedActivity("birth", san.ConstRate(1))
	birth.AddCase(san.ConstProb(1)).AddOutputArc(pop, 1)
	if _, err := Generate(m, Options{MaxStates: 50}); err == nil {
		t.Fatal("unbounded model did not hit MaxStates")
	}
}

func TestGenerateSelfLoopDropped(t *testing.T) {
	// A timed activity that does not change the marking contributes no
	// CTMC transition.
	m := san.NewModel("selfloop")
	p := m.AddPlace("p", 1)
	noop := m.AddTimedActivity("noop", san.ConstRate(5)).
		AddInputGate("g", func(mk san.Marking) bool { return mk.Get(p) == 1 }, nil)
	noop.AddCase(san.ConstProb(1))
	sp, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumStates() != 1 {
		t.Fatalf("NumStates = %d, want 1", sp.NumStates())
	}
	if !sp.Chain.IsAbsorbing(0) {
		t.Error("self-loop state should be absorbing in the CTMC")
	}
}
