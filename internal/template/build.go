package template

import (
	"context"
	"fmt"

	"guardedop/internal/mdcd"
	"guardedop/internal/modelcheck"
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

// Build validates spec, generates the scenario's constituent models,
// model-checks every generated state space, and solves the overhead
// measures. Counters template.instances and template.states are emitted
// on the ctx tracer (if any).
func Build(ctx context.Context, spec *Spec) (*Instance, error) {
	if spec == nil {
		return nil, specErr("nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nodes, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	opts := statespace.Options{MaxStates: spec.Limits.MaxStates}

	gd, err := buildGd(spec, nodes, opts)
	if err != nil {
		return nil, err
	}
	ndNew, err := buildNd(spec, nodes, true, opts)
	if err != nil {
		return nil, err
	}
	ndOld, err := buildNd(spec, nodes, false, opts)
	if err != nil {
		return nil, err
	}
	gp, err := buildGp(spec, nodes)
	if err != nil {
		return nil, err
	}

	// Model-check every generated chain before anything is solved on it:
	// generated models earn the same scrutiny the handwritten ones get.
	checks := []struct {
		name string
		sp   *statespace.Space
	}{
		{"template Gd(" + spec.Name + ")", gd.Space},
		{"template Nd-new(" + spec.Name + ")", ndNew.Space},
		{"template Nd-old(" + spec.Name + ")", ndOld.Space},
	}
	if gp.Space != nil {
		checks = append(checks, struct {
			name string
			sp   *statespace.Space
		}{"template Gp(" + spec.Name + ")", gp.Space})
	}
	total := 0
	for _, c := range checks {
		if rep := modelcheck.CheckSpace(c.name, c.sp, modelcheck.Options{}); !rep.OK() {
			return nil, fmt.Errorf("template: %w", rep.Err())
		}
		total += c.sp.NumStates()
	}

	obs.Count(ctx, obs.CtrTemplateInstances, 1)
	obs.Count(ctx, obs.CtrTemplateStates, int64(total))

	return &Instance{
		Spec:        spec,
		Params:      spec.Params(),
		Gd:          gd,
		NdNew:       ndNew,
		NdOld:       ndOld,
		Rhos:        gp.Rhos,
		GpStates:    gp.States,
		GpMeanField: gp.MeanField,
		GpSpace:     gp.Space,
		TotalStates: total,
	}, nil
}
