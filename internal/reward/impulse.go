package reward

import (
	"fmt"

	"guardedop/internal/statespace"
)

// ImpulseStructure assigns impulse rewards to activity completions: each
// completion of a named activity earns a fixed impulse (possibly gated on
// the marking the activity fires from). Impulse rewards capture event
// counts — numbers of acceptance tests, checkpoint establishments,
// messages sent — which rate rewards cannot express.
type ImpulseStructure struct {
	items []impulseItem
}

type impulseItem struct {
	activity string
	impulse  float64
	// when gates the impulse on the source marking index's predicate
	// evaluated against the marking; nil means always.
	when func(stateIdx int, sp *statespace.Space) bool
}

// NewImpulseStructure returns an empty impulse structure.
func NewImpulseStructure() *ImpulseStructure { return &ImpulseStructure{} }

// Add awards impulse on every completion of the named activity.
func (s *ImpulseStructure) Add(activity string, impulse float64) *ImpulseStructure {
	s.items = append(s.items, impulseItem{activity: activity, impulse: impulse})
	return s
}

// AddWhen awards impulse on completions of the named activity that fire
// from a state whose marking satisfies pred. It panics if pred is nil (a
// reward-structure construction bug).
func (s *ImpulseStructure) AddWhen(activity string, impulse float64, pred func(stateIdx int, sp *statespace.Space) bool) *ImpulseStructure {
	if pred == nil {
		panic(fmt.Sprintf("reward: nil impulse predicate for activity %q", activity))
	}
	s.items = append(s.items, impulseItem{activity: activity, impulse: impulse, when: pred})
	return s
}

// Len returns the number of impulse items.
func (s *ImpulseStructure) Len() int { return len(s.items) }

// rateVector folds the impulse structure into an equivalent rate-reward
// vector: state i earns Σ over transitions leaving i of impulse × rate.
// This is the classical impulse-to-rate conversion for expected-value
// measures (it is exact for expectations, though not for distributions).
func (s *ImpulseStructure) rateVector(sp *statespace.Space) []float64 {
	rates := make([]float64, sp.NumStates())
	for _, tr := range sp.Transitions {
		for _, item := range s.items {
			if item.activity != tr.Activity {
				continue
			}
			if item.when != nil && !item.when(tr.From, sp) {
				continue
			}
			rates[tr.From] += item.impulse * tr.Rate
		}
	}
	return rates
}

// SteadyStateImpulseRate returns the long-run impulse reward rate (per unit
// time) of each structure, in order, from one solve of the stationary
// distribution — for unit impulses, the long-run completion frequency of
// the selected activities.
func SteadyStateImpulseRate(sp *statespace.Space, ss ...*ImpulseStructure) ([]float64, error) {
	if sp == nil {
		return nil, errNilSpace
	}
	rates := make([][]float64, len(ss))
	for i, s := range ss {
		rates[i] = s.rateVector(sp)
	}
	return sp.Chain.SteadyStateRewards(rates...)
}
