package san

import (
	"fmt"
)

// Place is a named token holder. Places are created via Model.AddPlace and
// referenced in gate/rate functions through Marking.Get/Set.
type Place struct {
	name    string
	index   int
	initial int
}

// Name returns the place name.
func (p *Place) Name() string { return p.name }

// Index returns the place's position in markings of its model.
func (p *Place) Index() int { return p.index }

// Model is a stochastic activity network under construction. It is not safe
// for concurrent mutation; once built it is read-only and safe to share.
type Model struct {
	name       string
	places     []*Place
	byName     map[string]*Place
	activities []*Activity
}

// NewModel returns an empty SAN with the given name.
func NewModel(name string) *Model {
	return &Model{name: name, byName: make(map[string]*Place)}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Places returns the model's places in creation order. The caller must not
// mutate the returned slice.
func (m *Model) Places() []*Place { return m.places }

// Activities returns the model's activities in creation order. The caller
// must not mutate the returned slice.
func (m *Model) Activities() []*Activity { return m.activities }

// AddPlace creates a place with the given initial marking. Place names must
// be unique within the model; duplicates panic (model construction is
// programmer-controlled, so this is a build-time assertion, not a runtime
// error path).
func (m *Model) AddPlace(name string, initial int) *Place {
	if _, dup := m.byName[name]; dup {
		panic(fmt.Sprintf("san: duplicate place %q in model %q", name, m.name))
	}
	if initial < 0 {
		panic(fmt.Sprintf("san: negative initial marking for place %q", name))
	}
	p := &Place{name: name, index: len(m.places), initial: initial}
	m.places = append(m.places, p)
	m.byName[name] = p
	return p
}

// PlaceByName returns the named place, or nil if absent.
func (m *Model) PlaceByName(name string) *Place { return m.byName[name] }

// InitialMarking returns a fresh marking holding every place's initial
// token count.
func (m *Model) InitialMarking() Marking {
	mk := make(Marking, len(m.places))
	for _, p := range m.places {
		mk[p.index] = p.initial
	}
	return mk
}

// Validate checks structural well-formedness: every activity has a rate,
// at least one case path, and case probabilities that are
// marking-independent sane (checked lazily at exploration time for
// marking-dependent ones).
func (m *Model) Validate() error {
	if len(m.places) == 0 {
		return fmt.Errorf("san: model %q has no places", m.name)
	}
	names := make(map[string]bool, len(m.activities))
	for _, a := range m.activities {
		if names[a.name] {
			return fmt.Errorf("san: duplicate activity %q in model %q", a.name, m.name)
		}
		names[a.name] = true
		if a.rate == nil {
			return fmt.Errorf("san: activity %q has no rate", a.name)
		}
		if len(a.cases) == 0 {
			return fmt.Errorf("san: activity %q has no cases", a.name)
		}
	}
	return nil
}
