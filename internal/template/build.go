package template

import (
	"context"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/statespace"
)

// Instance is a fully built scenario: the three generated constituent
// reward models plus the solved overhead measures, ready to hand to the
// analyzer's translation layer (core.ScenarioModels).
type Instance struct {
	Spec   *Spec
	Params mdcd.Params

	// Gd is the G-OP dependability model; NdNew and NdOld the normal-mode
	// models with upgraded and all-proven software.
	Gd    *mdcd.RMGd
	NdNew *mdcd.RMNd
	NdOld *mdcd.RMNd

	// Rhos[i] is node i's forward-progress fraction during G-OP, in spec
	// node order.
	Rhos []float64

	// GpStates is the joint overhead model's state count (0 when the
	// mean-field approximation was used) and GpMeanField records which
	// path solved the overhead measures. GpSpace is the joint state
	// space itself, nil on the mean-field path.
	GpStates    int
	GpMeanField bool
	GpSpace     *statespace.Space

	// TotalStates sums the generated state spaces (Gd, Nd pair, and the
	// joint Gp when built) — the value reported on obs.CtrTemplateStates.
	TotalStates int
}

// Build validates spec and runs mdcd.Generate on the resolved scenario:
// it generates the constituent models, model-checks every generated state
// space, and solves the overhead measures. Counters template.instances
// and template.states are emitted on the ctx tracer (if any).
func Build(ctx context.Context, spec *Spec) (*Instance, error) {
	if spec == nil {
		return nil, specErr("nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	m, err := mdcd.Generate(sc)
	if err != nil {
		return nil, err
	}
	total := m.States()
	obs.Count(ctx, obs.CtrTemplateInstances, 1)
	obs.Count(ctx, obs.CtrTemplateStates, int64(total))

	return &Instance{
		Spec:        spec,
		Params:      sc.Params(spec.Theta),
		Gd:          m.Gd,
		NdNew:       m.NdNew,
		NdOld:       m.NdOld,
		Rhos:        m.Gp.Rhos,
		GpStates:    m.Gp.States,
		GpMeanField: m.Gp.MeanField,
		GpSpace:     m.Gp.Space,
		TotalStates: total,
	}, nil
}
