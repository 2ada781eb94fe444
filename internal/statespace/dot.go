package statespace

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the reachability graph as a Graphviz digraph:
// states labelled with their non-zero markings, edges labelled with the
// causing activity and rate. Absorbing states are drawn with double
// circles; states with initial probability are marked.
func (s *Space) WriteDot(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", s.Model.Name()+"-statespace")
	b.WriteString("  node [fontname=\"Helvetica\", shape=ellipse];\n")
	for i, mk := range s.States {
		shape := "ellipse"
		if s.Chain.IsAbsorbing(i) {
			shape = "doublecircle"
		}
		label := fmt.Sprintf("%d\\n%s", i, mk.Format(s.Model))
		if s.Initial[i] > 0 {
			label += fmt.Sprintf("\\ninit %.3g", s.Initial[i])
		}
		fmt.Fprintf(&b, "  s%d [shape=%s, label=\"%s\"];\n", i, shape, label)
	}
	for _, tr := range s.Transitions {
		if tr.From == tr.To {
			continue // self-loops clutter the graph and carry no CTMC meaning
		}
		fmt.Fprintf(&b, "  s%d -> s%d [label=\"%s: %.4g\"];\n", tr.From, tr.To, tr.Activity, tr.Rate)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
