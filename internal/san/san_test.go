package san

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestModelConstruction(t *testing.T) {
	m := NewModel("demo")
	p := m.AddPlace("p", 2)
	q := m.AddPlace("q", 0)
	if m.PlaceByName("p") != p || m.PlaceByName("missing") != nil {
		t.Error("PlaceByName lookup broken")
	}
	if p.Name() != "p" || p.Index() != 0 || q.Index() != 1 {
		t.Error("place metadata wrong")
	}
	mk := m.InitialMarking()
	if mk.Get(p) != 2 || mk.Get(q) != 0 {
		t.Errorf("initial marking = %v, want [2 0]", mk)
	}
	if m.Name() != "demo" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestDuplicatePlacePanics(t *testing.T) {
	m := NewModel("dup")
	m.AddPlace("p", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate place did not panic")
		}
	}()
	m.AddPlace("p", 1)
}

func TestMarkingKeyAndClone(t *testing.T) {
	m := NewModel("k")
	a := m.AddPlace("a", 1)
	m.AddPlace("b", 12)
	mk := m.InitialMarking()
	if mk.Key() != "1,12" {
		t.Errorf("Key = %q, want %q", mk.Key(), "1,12")
	}
	c := mk.Clone()
	c.Set(a, 5)
	if mk.Get(a) != 1 {
		t.Error("Clone aliases original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Set did not panic")
		}
	}()
	c.Set(a, -1)
}

func TestEnablingSemantics(t *testing.T) {
	m := NewModel("enable")
	p := m.AddPlace("p", 1)
	g := m.AddPlace("guard", 0)
	act := m.AddTimedActivity("t", ConstRate(2)).
		AddInputArc(p, 1).
		AddInputGate("g", func(mk Marking) bool { return mk.Get(g) == 0 }, nil)
	mk := m.InitialMarking()
	if !act.Enabled(mk) {
		t.Fatal("activity should be enabled")
	}
	mk.Set(g, 1)
	if act.Enabled(mk) {
		t.Fatal("gate predicate should disable activity")
	}
	mk.Set(g, 0)
	mk.Set(p, 0)
	if act.Enabled(mk) {
		t.Fatal("empty input place should disable activity")
	}
}

func TestFireConsumesAndProduces(t *testing.T) {
	m := NewModel("fire")
	src := m.AddPlace("src", 2)
	dst := m.AddPlace("dst", 0)
	act := m.AddTimedActivity("move", ConstRate(1)).AddInputArc(src, 1)
	act.AddCase(ConstProb(1)).AddOutputArc(dst, 1)
	mk := m.InitialMarking()
	outs, probs, err := act.Fire(mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || probs[0] != 1 {
		t.Fatalf("Fire returned %d cases, probs %v", len(outs), probs)
	}
	if outs[0].Get(src) != 1 || outs[0].Get(dst) != 1 {
		t.Errorf("fired marking = %v, want src=1 dst=1", outs[0])
	}
	if mk.Get(src) != 2 || mk.Get(dst) != 0 {
		t.Error("Fire mutated its input marking")
	}
}

func TestFireCaseSelection(t *testing.T) {
	m := NewModel("cases")
	p := m.AddPlace("p", 1)
	a := m.AddPlace("a", 0)
	b := m.AddPlace("b", 0)
	act := m.AddTimedActivity("split", ConstRate(1)).AddInputArc(p, 1)
	act.AddCase(ConstProb(0.3)).AddOutputArc(a, 1)
	act.AddCase(ConstProb(0.7)).AddOutputArc(b, 1)
	outs, probs, err := act.Fire(m.InitialMarking())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("len(outs) = %d, want 2", len(outs))
	}
	if probs[0] != 0.3 || probs[1] != 0.7 {
		t.Errorf("probs = %v", probs)
	}
	if outs[0].Get(a) != 1 || outs[1].Get(b) != 1 {
		t.Error("case outputs wrong")
	}
}

func TestFireZeroProbabilityCaseSkipped(t *testing.T) {
	m := NewModel("zero")
	p := m.AddPlace("p", 1)
	act := m.AddTimedActivity("t", ConstRate(1))
	act.AddCase(ConstProb(0)).AddOutputArc(p, 1)
	act.AddCase(ConstProb(1))
	outs, probs, err := act.Fire(m.InitialMarking())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || probs[0] != 1 {
		t.Errorf("zero-prob case not skipped: %d cases, probs %v", len(outs), probs)
	}
}

func TestFireBadProbabilitiesRejected(t *testing.T) {
	m := NewModel("bad")
	m.AddPlace("p", 1)
	act := m.AddTimedActivity("t", ConstRate(1))
	act.AddCase(ConstProb(0.5))
	if _, _, err := act.Fire(m.InitialMarking()); err == nil {
		t.Error("probabilities summing to 0.5 accepted")
	}
	m2 := NewModel("neg")
	m2.AddPlace("p", 1)
	act2 := m2.AddTimedActivity("t", ConstRate(1))
	act2.AddCase(ConstProb(-0.5))
	act2.AddCase(ConstProb(1.5))
	if _, _, err := act2.Fire(m2.InitialMarking()); err == nil {
		t.Error("negative case probability accepted")
	}
}

func TestImplicitCertainCase(t *testing.T) {
	m := NewModel("implicit")
	p := m.AddPlace("p", 1)
	q := m.AddPlace("q", 0)
	act := m.AddTimedActivity("t", ConstRate(1)).
		AddInputGate("g", func(mk Marking) bool { return mk.Get(p) == 1 }, func(mk Marking) {
			mk.Set(p, 0)
			mk.Set(q, 1)
		})
	outs, probs, err := act.Fire(m.InitialMarking())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || probs[0] != 1 || outs[0].Get(q) != 1 {
		t.Errorf("implicit case broken: outs=%v probs=%v", outs, probs)
	}
}

func TestInvalidRatePanics(t *testing.T) {
	m := NewModel("r")
	m.AddPlace("p", 0)
	a := m.AddTimedActivity("t", ConstRate(math.NaN()))
	defer func() {
		if recover() == nil {
			t.Fatal("NaN rate did not panic")
		}
	}()
	a.Rate(m.InitialMarking())
}

func TestValidate(t *testing.T) {
	m := NewModel("v")
	if err := m.Validate(); err == nil {
		t.Error("model with no places validated")
	}
	m.AddPlace("p", 0)
	a := m.AddTimedActivity("t", nil)
	a.AddCase(ConstProb(1))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "no rate") {
		t.Errorf("nil rate not caught: %v", err)
	}
}

func TestValidateDuplicateActivity(t *testing.T) {
	m := NewModel("v2")
	m.AddPlace("p", 0)
	m.AddTimedActivity("t", ConstRate(1)).AddCase(ConstProb(1))
	m.AddTimedActivity("t", ConstRate(2)).AddCase(ConstProb(1))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate activity") {
		t.Errorf("duplicate activity not caught: %v", err)
	}
}

// Property: Fire never mutates the source marking and case probabilities of
// the returned set sum to one.
func TestFirePurityProperty(t *testing.T) {
	m := NewModel("prop")
	p := m.AddPlace("p", 3)
	q := m.AddPlace("q", 0)
	act := m.AddTimedActivity("t", ConstRate(1)).AddInputArc(p, 1)
	act.AddCase(ConstProb(0.25)).AddOutputArc(q, 2)
	act.AddCase(ConstProb(0.75)).AddOutputArc(p, 1)
	f := func(extraP, extraQ uint8) bool {
		mk := m.InitialMarking()
		mk.Set(p, 1+int(extraP%5))
		mk.Set(q, int(extraQ%5))
		before := mk.Clone()
		outs, probs, err := act.Fire(mk)
		if err != nil {
			return false
		}
		if mk.Key() != before.Key() {
			return false
		}
		sum := 0.0
		for _, pr := range probs {
			sum += pr
		}
		return len(outs) == 2 && math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkingFormat(t *testing.T) {
	m := NewModel("fmt")
	m.AddPlace("alpha", 0)
	m.AddPlace("beta", 2)
	got := m.InitialMarking().Format(m)
	if got != "{beta=2}" {
		t.Errorf("format = %q, want {beta=2}", got)
	}
}
