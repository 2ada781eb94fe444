package reward

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// poissonCounter builds a model whose single activity fires at rate r
// without changing the marking: a pure Poisson event counter that only
// impulse rewards can observe.
func poissonCounter(t *testing.T, r float64) *statespace.Space {
	t.Helper()
	m := san.NewModel("counter")
	p := m.AddPlace("p", 1)
	tick := m.AddTimedActivity("tick", san.ConstRate(r)).
		AddInputGate("g", func(mk san.Marking) bool { return mk.Get(p) == 1 }, nil)
	tick.AddCase(san.ConstProb(1))
	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// accumulatedImpulse is the expected impulse reward earned over [0, t]:
// the accumulated reward of the structure's folded rate vector.
func accumulatedImpulse(sp *statespace.Space, is *ImpulseStructure, t float64) (float64, error) {
	_, accs, err := sp.Chain.TransientAccumulated(context.Background(), sp.Initial, []float64{t})
	if err != nil {
		return 0, err
	}
	return Expected("impulse", is.rateVector(sp), accs[0])
}

func TestAccumulatedImpulseCountsPoissonEvents(t *testing.T) {
	r := 3.5
	sp := poissonCounter(t, r)
	is := NewImpulseStructure().Add("tick", 1)
	for _, tt := range []float64{0, 1, 10} {
		got, err := accumulatedImpulse(sp, is, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-r*tt) > 1e-9 {
			t.Errorf("E[N(%v)] = %v, want %v", tt, got, r*tt)
		}
	}
}

func TestImpulseSelfLoopRetainedInTransitions(t *testing.T) {
	sp := poissonCounter(t, 2)
	if len(sp.Transitions) != 1 {
		t.Fatalf("transitions = %v, want the self-loop retained", sp.Transitions)
	}
	tr := sp.Transitions[0]
	if tr.From != tr.To || tr.Activity != "tick" || tr.Rate != 2 {
		t.Errorf("transition = %+v", tr)
	}
	// And the CTMC must NOT see the self-loop.
	if !sp.Chain.IsAbsorbing(0) {
		t.Error("self-loop leaked into the CTMC generator")
	}
}

func TestSteadyStateImpulseRateTwoState(t *testing.T) {
	// Cycle 0 <-> 1 with rates a, b: long-run completion rate of "fwd" is
	// pi_0 * a = ab/(a+b).
	m := san.NewModel("cycle")
	p0 := m.AddPlace("p0", 1)
	p1 := m.AddPlace("p1", 0)
	a, b := 3.0, 1.0
	fwd := m.AddTimedActivity("fwd", san.ConstRate(a)).AddInputArc(p0, 1)
	fwd.AddCase(san.ConstProb(1)).AddOutputArc(p1, 1)
	bwd := m.AddTimedActivity("bwd", san.ConstRate(b)).AddInputArc(p1, 1)
	bwd.AddCase(san.ConstProb(1)).AddOutputArc(p0, 1)
	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SteadyStateImpulseRate(sp, NewImpulseStructure().Add("fwd", 1), NewImpulseStructure().Add("bwd", 2))
	if err != nil {
		t.Fatal(err)
	}
	want := a * b / (a + b)
	if len(got) != 2 || math.Abs(got[0]-want) > 1e-10 || math.Abs(got[1]-2*want) > 1e-10 {
		t.Errorf("completion rates = %v, want [%v %v]", got, want, 2*want)
	}
}

func TestImpulseWeightsAndGating(t *testing.T) {
	sp := poissonCounter(t, 4)
	// Impulse 2.5 per completion, gated to always-true, plus a never-true
	// gate that must contribute nothing.
	is := NewImpulseStructure().
		AddWhen("tick", 2.5, func(int, *statespace.Space) bool { return true }).
		AddWhen("tick", 100, func(int, *statespace.Space) bool { return false })
	got, err := accumulatedImpulse(sp, is, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5*4*2) > 1e-9 {
		t.Errorf("gated impulse = %v, want %v", got, 2.5*4*2)
	}
}

func TestImpulseUnknownActivityIsZero(t *testing.T) {
	sp := poissonCounter(t, 4)
	got, err := accumulatedImpulse(sp, NewImpulseStructure().Add("nonexistent", 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("unknown activity impulse = %v, want 0", got)
	}
}

func TestImpulseNilSpaceAndNilPredicate(t *testing.T) {
	is := NewImpulseStructure().Add("x", 1)
	if _, err := SteadyStateImpulseRate(nil, is); err == nil {
		t.Error("nil space accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil predicate did not panic")
		}
	}()
	NewImpulseStructure().AddWhen("x", 1, nil)
}

func TestImpulseLen(t *testing.T) {
	is := NewImpulseStructure().Add("a", 1).Add("b", 2)
	if is.Len() != 2 {
		t.Errorf("Len = %d, want 2", is.Len())
	}
}
