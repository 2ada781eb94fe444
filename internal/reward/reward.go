// Package reward maps UltraSAN-style reward structures onto generated state
// spaces and evaluates reward variables.
//
// A reward structure is a list of predicate-rate pairs over markings — the
// exact shape of Tables 1 and 2 of the guarded-operation paper. A state's
// reward rate is the sum of the rates of all pairs whose predicate holds in
// its marking. Three reward variables are supported:
//
//   - expected instant-of-time reward at time t:     Σ_s r(s)·π_s(t)
//   - expected accumulated interval-of-time reward:  Σ_s r(s)·∫₀ᵗ π_s(u)du
//   - expected steady-state (instant-of-time) reward: Σ_s r(s)·π_s
package reward

import (
	"context"
	"errors"
	"fmt"

	"guardedop/internal/robust"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// Structure is a rate-reward structure: a list of predicate-rate pairs.
// The zero value is an empty structure with reward zero everywhere.
type Structure struct {
	pairs []pair
}

type pair struct {
	name string
	pred san.Predicate
	rate float64
}

// NewStructure returns an empty reward structure.
func NewStructure() *Structure { return &Structure{} }

// Add appends a predicate-rate pair. The name is used in diagnostics only.
// It returns the structure for chaining, and panics if pred is nil (a
// reward-structure construction bug).
func (s *Structure) Add(name string, pred san.Predicate, rate float64) *Structure {
	if pred == nil {
		panic(fmt.Sprintf("reward: nil predicate for pair %q", name))
	}
	s.pairs = append(s.pairs, pair{name: name, pred: pred, rate: rate})
	return s
}

// Len returns the number of predicate-rate pairs.
func (s *Structure) Len() int { return len(s.pairs) }

// Rate returns the reward rate of a single marking: the sum of rates of all
// pairs whose predicate holds.
func (s *Structure) Rate(mk san.Marking) float64 {
	total := 0.0
	for _, p := range s.pairs {
		if p.pred(mk) {
			total += p.rate
		}
	}
	return total
}

// RateVector evaluates the structure on every state of the space.
func (s *Structure) RateVector(sp *statespace.Space) []float64 {
	rates := make([]float64, sp.NumStates())
	for i, mk := range sp.States {
		rates[i] = s.Rate(mk)
	}
	return rates
}

// errNilSpace guards the evaluation entry points.
var errNilSpace = errors.New("reward: nil state space")

// InstantOfTime returns the expected instant-of-time reward at time t,
// starting from the space's initial distribution.
func InstantOfTime(sp *statespace.Space, s *Structure, t float64) (float64, error) {
	if sp == nil {
		return 0, errNilSpace
	}
	pis, err := sp.Chain.Transient(context.Background(), sp.Initial, []float64{t})
	if err != nil {
		return 0, err
	}
	return expected(s.RateVector(sp), pis[0])
}

// Accumulated returns the expected accumulated interval-of-time reward over
// [0, t], starting from the space's initial distribution.
func Accumulated(sp *statespace.Space, s *Structure, t float64) (float64, error) {
	if sp == nil {
		return 0, errNilSpace
	}
	_, accs, err := sp.Chain.TransientAccumulated(context.Background(), sp.Initial, []float64{t})
	if err != nil {
		return 0, err
	}
	return expected(s.RateVector(sp), accs[0])
}

// expected contracts a reward-rate vector against a solved state vector
// of the same space, guarding the result against non-finite
// contamination.
func expected(rates, vec []float64) (float64, error) {
	sum := 0.0
	for i, r := range rates {
		sum += r * vec[i]
	}
	if err := robust.CheckFinite("reward", sum); err != nil {
		return 0, fmt.Errorf("reward: %w", err)
	}
	return sum, nil
}

// SteadyState returns the expected steady-state reward of each structure,
// in order, from one solve of the stationary distribution. The space's
// chain must be ergodic.
func SteadyState(sp *statespace.Space, ss ...*Structure) ([]float64, error) {
	if sp == nil {
		return nil, errNilSpace
	}
	rates := make([][]float64, len(ss))
	for i, s := range ss {
		rates[i] = s.RateVector(sp)
	}
	return sp.Chain.SteadyStateRewards(rates...)
}
