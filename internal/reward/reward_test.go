package reward

import (
	"errors"
	"math"
	"testing"

	"guardedop/internal/robust"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// buildCycle returns a two-state cycle model and its generated space.
func buildCycle(t *testing.T, a, b float64) (*statespace.Space, *san.Place, *san.Place) {
	t.Helper()
	m := san.NewModel("cycle")
	p0 := m.AddPlace("p0", 1)
	p1 := m.AddPlace("p1", 0)
	fwd := m.AddTimedActivity("fwd", san.ConstRate(a)).AddInputArc(p0, 1)
	fwd.AddCase(san.ConstProb(1)).AddOutputArc(p1, 1)
	bwd := m.AddTimedActivity("bwd", san.ConstRate(b)).AddInputArc(p1, 1)
	bwd.AddCase(san.ConstProb(1)).AddOutputArc(p0, 1)
	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sp, p0, p1
}

func TestStructureRate(t *testing.T) {
	m := san.NewModel("s")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 2)
	s := NewStructure().
		Add("hasP", func(mk san.Marking) bool { return mk.Get(p) > 0 }, 1.5).
		Add("hasQ2", func(mk san.Marking) bool { return mk.Get(q) == 2 }, 2).
		Add("never", func(mk san.Marking) bool { return false }, 100)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := s.Rate(m.InitialMarking()); got != 3.5 {
		t.Errorf("Rate = %v, want 3.5 (overlapping predicates sum)", got)
	}
}

func TestNilPredicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil predicate did not panic")
		}
	}()
	NewStructure().Add("bad", nil, 1)
}

func TestInstantOfTimeMatchesAnalytic(t *testing.T) {
	a, b := 3.0, 1.0
	sp, _, p1 := buildCycle(t, a, b)
	s := NewStructure().Add("inP1", func(mk san.Marking) bool { return mk.Get(p1) == 1 }, 1)
	for _, tt := range []float64{0, 0.1, 1, 10} {
		got, err := InstantOfTime(sp, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tt))
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("t=%v: instant reward = %v, want %v", tt, got, want)
		}
	}
}

func TestAccumulatedMatchesAnalytic(t *testing.T) {
	a, b := 2.0, 5.0
	sp, _, p1 := buildCycle(t, a, b)
	s := NewStructure().Add("inP1", func(mk san.Marking) bool { return mk.Get(p1) == 1 }, 1)
	tt := 3.0
	sum := a + b
	want := a/sum*tt - a/(sum*sum)*(1-math.Exp(-sum*tt))
	got, err := Accumulated(sp, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("accumulated = %v, want %v", got, want)
	}
}

func TestSteadyStateMatchesAnalytic(t *testing.T) {
	a, b := 3.0, 1.0
	sp, _, p1 := buildCycle(t, a, b)
	s := NewStructure().Add("inP1", func(mk san.Marking) bool { return mk.Get(p1) == 1 }, 2)
	other := NewStructure().Add("inP0", func(mk san.Marking) bool { return mk.Get(p1) == 0 }, 1)
	got, err := SteadyState(sp, s, other)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 * a / (a + b), b / (a + b)}
	if len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-10 || math.Abs(got[1]-want[1]) > 1e-10 {
		t.Errorf("steady rewards = %v, want %v", got, want)
	}
}

// A state-set probability is the instant-of-time reward of its rate-one
// indicator (the idiom of the paper's Table 1).
func TestStateProbability(t *testing.T) {
	sp, p0, _ := buildCycle(t, 1, 1)
	indicator := NewStructure().Add("indicator", func(mk san.Marking) bool { return mk.Get(p0) == 1 }, 1)
	got, err := InstantOfTime(sp, indicator, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("P(p0 at 0) = %v, want 1", got)
	}
}

func TestNilSpaceRejected(t *testing.T) {
	s := NewStructure()
	if _, err := InstantOfTime(nil, s, 1); err == nil {
		t.Error("InstantOfTime accepted nil space")
	}
	if _, err := Accumulated(nil, s, 1); err == nil {
		t.Error("Accumulated accepted nil space")
	}
	if _, err := SteadyState(nil, s); err == nil {
		t.Error("SteadyState accepted nil space")
	}
}

func TestEmptyStructureIsZero(t *testing.T) {
	sp, _, _ := buildCycle(t, 1, 1)
	got, err := InstantOfTime(sp, NewStructure(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty structure reward = %v, want 0", got)
	}
}

// Negative rates express the subtraction idiom of the paper's ∫τh(τ)dτ
// reward structure (rate 1 on one set, -1 on a subset).
func TestNegativeRatePairs(t *testing.T) {
	sp, p0, p1 := buildCycle(t, 1, 1)
	s := NewStructure().
		Add("all", func(mk san.Marking) bool { return true }, 1).
		Add("minusP1", func(mk san.Marking) bool { return mk.Get(p1) == 1 }, -1)
	got, err := SteadyState(sp, s)
	if err != nil {
		t.Fatal(err)
	}
	// all(1) - inP1(1) = P(p0) = 0.5 at steady state.
	if math.Abs(got[0]-0.5) > 1e-10 {
		t.Errorf("steady reward = %v, want 0.5", got[0])
	}
	_ = p0
}

func TestExpectedMatchesManual(t *testing.T) {
	sp, _, _ := buildCycle(t, 1, 1)
	pi, err := sp.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for _, rates := range [][]float64{{0, 2}, {1, 1}} {
		r, err := Expected("r", rates, pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-1) > 1e-10 {
			t.Errorf("Expected(%v) = %v, want 1", rates, r)
		}
	}
	if _, err := Expected("short", []float64{1}, pi); err == nil {
		t.Error("accepted wrong-length reward vector")
	}
	if _, err := Expected("inf", []float64{math.Inf(1), 0}, pi); !errors.Is(err, robust.ErrNonFinite) {
		t.Errorf("non-finite contraction: err = %v, want robust.ErrNonFinite", err)
	}
}
