package statespace

import (
	"fmt"
	"io"
	"sort"
)

// Diagnostics summarises structural properties of a generated state space:
// which activities ever fire, how often each place is marked, and the
// observed token bounds — the sanity view a modeller inspects before
// trusting reward numbers.
type Diagnostics struct {
	// DeadActivities are activities that never fire in any reachable
	// marking (misspecified gates are the usual cause).
	DeadActivities []string
	// PlaceBounds[place name] is the maximum token count observed across
	// reachable markings.
	PlaceBounds map[string]int
	// ActivityFanout[activity name] is the number of distinct labelled
	// transitions the activity contributes.
	ActivityFanout map[string]int
	// AbsorbingStates is the number of absorbing CTMC states.
	AbsorbingStates int
}

// Diagnose computes structural diagnostics for the space.
func (s *Space) Diagnose() Diagnostics {
	d := Diagnostics{
		PlaceBounds:     make(map[string]int, len(s.Model.Places())),
		ActivityFanout:  make(map[string]int),
		AbsorbingStates: len(s.Chain.AbsorbingStates()),
	}
	for _, pl := range s.Model.Places() {
		bound := 0
		for _, mk := range s.States {
			if c := mk.Get(pl); c > bound {
				bound = c
			}
		}
		d.PlaceBounds[pl.Name()] = bound
	}
	fired := make(map[string]bool)
	for _, tr := range s.Transitions {
		fired[tr.Activity] = true
		d.ActivityFanout[tr.Activity]++
	}
	for _, a := range s.Model.Activities() {
		if !fired[a.Name()] {
			d.DeadActivities = append(d.DeadActivities, a.Name())
		}
	}
	sort.Strings(d.DeadActivities)
	return d
}

// WriteReport renders the diagnostics as text.
func (d Diagnostics) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "absorbing states: %d\n", d.AbsorbingStates); err != nil {
		return err
	}
	names := make([]string, 0, len(d.PlaceBounds))
	for n := range d.PlaceBounds {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "place bounds:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s <= %d\n", n, d.PlaceBounds[n])
	}
	acts := make([]string, 0, len(d.ActivityFanout))
	for n := range d.ActivityFanout {
		acts = append(acts, n)
	}
	sort.Strings(acts)
	fmt.Fprintln(w, "activity fanout (distinct labelled transitions):")
	for _, n := range acts {
		fmt.Fprintf(w, "  %-12s %d\n", n, d.ActivityFanout[n])
	}
	if len(d.DeadActivities) > 0 {
		fmt.Fprintf(w, "WARNING: dead timed activities (never enabled): %v\n", d.DeadActivities)
	}
	return nil
}
