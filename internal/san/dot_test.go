package san

import (
	"strings"
	"testing"
)

func TestWriteDot(t *testing.T) {
	m := NewModel("demo")
	p := m.AddPlace("src", 2)
	q := m.AddPlace("dst", 0)
	act := m.AddTimedActivity("move", ConstRate(1)).
		AddInputArc(p, 1).
		AddInputGate("g", func(Marking) bool { return true }, nil)
	act.AddCase(ConstProb(0.5)).AddOutputArc(q, 1)
	act.AddCase(ConstProb(0.5)).AddOutputArc(q, 2)
	back := m.AddTimedActivity("flash", ConstRate(2)).AddInputArc(q, 3)
	back.AddCase(ConstProb(1)).AddOutputArc(p, 1)

	var b strings.Builder
	if err := m.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph \"demo\"",
		"src\\n(init 2)",
		"dst",
		"move\\n[1 gate(s)]",
		"flash",
		"place_0 -> act_0",
		"act_0 -> place_1 [label=\"case 1 x1\"]",
		"act_0 -> place_1 [label=\"case 2 x2\"]",
		"place_1 -> act_1 [label=\"3\"]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}
