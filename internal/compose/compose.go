// Package compose provides UltraSAN-style model composition for stochastic
// activity networks: Join combines submodels that share places; joining N
// instances of one template under distinct labels replicates it.
//
// Composition works at build time: a Template is a function that adds one
// submodel's places and activities into a target model under a unique name
// prefix, wiring itself to the shared places it is given. This keeps gate
// predicates and rate functions ordinary Go closures over *san.Place
// handles — no marking re-indexing is ever needed — while providing the
// Rep/Join modelling workflow of the paper's tooling.
package compose

import (
	"fmt"
	"sort"

	"guardedop/internal/san"
)

// Shared is the set of places visible to every submodel, keyed by the
// logical shared-place name.
type Shared map[string]*san.Place

// Template instantiates one submodel into m. All places and activities the
// template adds must use the prefix to stay unique across replicas; shared
// state is accessed through the shared map.
type Template func(m *san.Model, prefix string, shared Shared) error

// SharedPlaceSpec declares a shared place and its initial marking.
type SharedPlaceSpec struct {
	Name    string
	Initial int
}

// Join builds a model named name containing the given shared places and
// one instance of each labelled template. Labels must be unique; they
// become the instance prefixes.
func Join(name string, sharedSpecs []SharedPlaceSpec, parts map[string]Template) (*san.Model, Shared, error) {
	m := san.NewModel(name)
	shared := make(Shared, len(sharedSpecs))
	for _, spec := range sharedSpecs {
		if _, dup := shared[spec.Name]; dup {
			return nil, nil, fmt.Errorf("compose: duplicate shared place %q", spec.Name)
		}
		shared[spec.Name] = m.AddPlace(spec.Name, spec.Initial)
	}
	seen := make(map[string]bool, len(parts))
	for label, tmpl := range parts {
		if tmpl == nil {
			return nil, nil, fmt.Errorf("compose: nil template %q", label)
		}
		if seen[label] {
			return nil, nil, fmt.Errorf("compose: duplicate template label %q", label)
		}
		seen[label] = true
	}
	// Deterministic instantiation order (map iteration is random): sort by
	// label so generated state spaces are reproducible across runs.
	for _, label := range sortedLabels(parts) {
		if err := parts[label](m, label+".", shared); err != nil {
			return nil, nil, fmt.Errorf("compose: instantiating %q: %w", label, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, shared, nil
}

func sortedLabels(parts map[string]Template) []string {
	labels := make([]string, 0, len(parts))
	for l := range parts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
