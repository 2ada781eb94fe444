// Package statespace explores the reachability graph of a stochastic
// activity network and converts it into a labelled continuous-time Markov
// chain.
//
// Every SAN activity is timed, so every reachable marking is tangible: each
// one becomes a CTMC state, and each enabled activity's cases become
// transitions at rate × case probability.
package statespace

import (
	"fmt"
	"sort"

	"guardedop/internal/ctmc"
	"guardedop/internal/robust"
	"guardedop/internal/san"
	"guardedop/internal/sparse"
)

// Options configures state-space generation.
type Options struct {
	// MaxStates caps exploration (default 1 << 20).
	MaxStates int
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxStates < 0 {
		return o, fmt.Errorf("statespace: MaxStates %d is negative: %w", o.MaxStates, robust.ErrInvariant)
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1 << 20
	}
	return o, nil
}

// ErrStateSpaceTooLarge is reported when reachability exploration exceeds
// Options.MaxStates. It wraps robust.ErrInvariant so robust.ErrorClass —
// and through it the serving layer's HTTP status map — classifies an
// oversized scenario as a client-model problem rather than an internal
// failure.
var ErrStateSpaceTooLarge = fmt.Errorf("statespace: state space too large: %w", robust.ErrInvariant)

// Space is the generated state space: the list of reachable markings, the
// CTMC over them, and the initial distribution.
type Space struct {
	Model  *san.Model
	States []san.Marking
	Chain  *ctmc.Chain
	// Initial is the initial distribution: a point mass on state 0, the
	// model's initial marking.
	Initial []float64
	// Transitions lists every state-to-state transition labelled
	// with the timed activity whose completion causes it, aggregated per
	// (from, to, activity). Unlike the CTMC generator it RETAINS
	// self-loops (an activity completing without changing the marking):
	// they are irrelevant to state probabilities but carry impulse
	// rewards — e.g. counting message-send completions.
	Transitions []Transition

	index map[string]int
}

// Transition is one labelled state-to-state rate.
type Transition struct {
	From, To int
	Rate     float64
	Activity string
}

// NumStates returns the number of states.
func (s *Space) NumStates() int { return len(s.States) }

// StateIndex returns the index of the given marking, or -1 if it is not a
// reachable state.
func (s *Space) StateIndex(mk san.Marking) int {
	if i, ok := s.index[mk.Key()]; ok {
		return i
	}
	return -1
}

// Generate explores the SAN's reachability graph from its initial marking
// and returns the state space with its CTMC.
func Generate(model *san.Model, opts Options) (*Space, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}

	sp := &Space{Model: model, index: make(map[string]int)}
	sp.intern(model.InitialMarking())
	frontier := []int{0}

	type edge struct {
		from, to int
		rate     float64
		activity string
	}
	var edges []edge

	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		mk := sp.States[s]
		for _, a := range model.Activities() {
			if !a.Enabled(mk) {
				continue
			}
			rate := a.Rate(mk)
			if rate == 0 {
				continue
			}
			outs, probs, err := a.Fire(mk)
			if err != nil {
				return nil, fmt.Errorf("statespace: firing %q in %s: %w", a.Name(), mk.Key(), err)
			}
			for i, out := range outs {
				idx, isNew := sp.intern(out)
				if isNew {
					frontier = append(frontier, idx)
				}
				edges = append(edges, edge{from: s, to: idx, rate: rate * probs[i], activity: a.Name()})
			}
		}
		if len(sp.States) > opts.MaxStates {
			return nil, fmt.Errorf("%w: exceeds %d states", ErrStateSpaceTooLarge, opts.MaxStates)
		}
	}

	n := len(sp.States)
	gen := sparse.NewCOO(n, n)
	merged := make(map[Transition]float64, len(edges))
	for _, e := range edges {
		if e.from != e.to {
			gen.Add(e.from, e.to, e.rate)
			gen.Add(e.from, e.from, -e.rate)
		}
		merged[Transition{From: e.from, To: e.to, Activity: e.activity}] += e.rate
	}
	sp.Transitions = make([]Transition, 0, len(merged))
	for key, rate := range merged {
		key.Rate = rate
		sp.Transitions = append(sp.Transitions, key)
	}
	sort.Slice(sp.Transitions, func(i, j int) bool {
		a, b := sp.Transitions[i], sp.Transitions[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Activity < b.Activity
	})
	chain, err := ctmc.New(gen)
	if err != nil {
		return nil, fmt.Errorf("statespace: generated CTMC invalid: %w", err)
	}
	sp.Chain = chain
	sp.Initial = make([]float64, n)
	sp.Initial[0] = 1
	return sp, nil
}

// intern returns the state index for mk, creating it if unseen.
func (s *Space) intern(mk san.Marking) (idx int, isNew bool) {
	key := mk.Key()
	if i, ok := s.index[key]; ok {
		return i, false
	}
	idx = len(s.States)
	s.States = append(s.States, mk)
	s.index[key] = idx
	return idx, true
}
