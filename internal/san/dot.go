package san

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the SAN's structure as a Graphviz digraph: places as
// circles (labelled with non-zero initial markings), timed activities as
// filled boxes — the conventional SAN drawing style of the paper's
// Figures 6-8. Input/output
// arcs appear as edges; gates are noted on the activity label because
// their predicates and functions are opaque Go code.
func (m *Model) WriteDot(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", m.name)
	b.WriteString("  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n")

	for _, p := range m.places {
		label := p.name
		if p.initial > 0 {
			label = fmt.Sprintf("%s\\n(init %d)", p.name, p.initial)
		}
		fmt.Fprintf(&b, "  place_%d [shape=circle, label=\"%s\"];\n", p.index, label)
	}
	for ai, a := range m.activities {
		label := a.name
		if gates := len(a.inputGates); gates > 0 {
			label = fmt.Sprintf("%s\\n[%d gate(s)]", a.name, gates)
		}
		fmt.Fprintf(&b, "  act_%d [shape=box, style=\"filled, rounded\", fillcolor=lightgrey, label=\"%s\"];\n",
			ai, label)

		for _, ia := range a.inputArcs {
			lbl := ""
			if ia.tokens > 1 {
				lbl = fmt.Sprintf(" [label=\"%d\"]", ia.tokens)
			}
			fmt.Fprintf(&b, "  place_%d -> act_%d%s;\n", ia.place.index, ai, lbl)
		}
		for ci, c := range a.cases {
			for _, oa := range c.outputArcs {
				lbl := ""
				if len(a.cases) > 1 || oa.tokens > 1 {
					lbl = fmt.Sprintf(" [label=\"case %d x%d\"]", ci+1, oa.tokens)
				}
				fmt.Fprintf(&b, "  act_%d -> place_%d%s;\n", ai, oa.place.index, lbl)
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
