package template_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/robust"
	"guardedop/internal/statespace"
	"guardedop/internal/template"
)

// legacyLimitsSpec is the paper spec with the retired
// limits.max_vanishing_depth field still set; Parse ignores it.
const legacyLimitsSpec = `{"name":"legacy","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,
"defaults":{"lambda":1200,"p_ext":0.1,"mu_old":1e-8},
"nodes":[{"name":"P1","upgrade":{"mu_new":1e-4}},{"name":"P2"}],
"limits":{"max_states":4096,"max_vanishing_depth":64}}`

// FuzzParseSpec feeds arbitrary bytes to template.Parse: it must never
// panic, every rejection must be a typed robust.ErrInvariant, and every
// accepted spec must hash (the serving layer's cache key).
func FuzzParseSpec(f *testing.F) {
	addSpecSeeds(f)
	f.Add([]byte(legacyLimitsSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := template.Parse(data)
		if err != nil {
			if !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("Parse error %v does not wrap robust.ErrInvariant", err)
			}
			return
		}
		if spec.Hash() == "" {
			t.Fatal("accepted spec has an empty hash")
		}
	})
}

// fuzzMaxStates caps the state limit of every spec FuzzBuildSpec builds,
// so one input cannot spend the fuzzing budget on a huge generation.
const fuzzMaxStates = 2048

// noDefaultsSpec is the paper scenario without a defaults block: every
// node carries its own rates.
const noDefaultsSpec = `{"name":"no-defaults","theta":10000,"coverage":0.95,"alpha":6000,"beta":6000,
"nodes":[{"name":"P1","lambda":1200,"p_ext":0.1,"mu_old":1e-8,"upgrade":{"mu_new":1e-4}},
{"name":"P2","lambda":1200,"p_ext":0.1,"mu_old":1e-8}]}`

// FuzzBuildSpec feeds every spec Parse accepts to template.Build and then
// to the numeric scenario analyzer — the path a POST /v1/scenario/curve
// body takes into the model generator and the translation layer. Neither
// may panic, and every error must be typed: a robust.ErrInvariant
// rejection or a statespace.ErrStateSpaceTooLarge limit.
func FuzzBuildSpec(f *testing.F) {
	addSpecSeeds(f)
	for _, policy := range template.Policies() {
		spec := template.PaperSpec()
		spec.Name = "paper-" + string(policy)
		spec.Guard.Policy = policy
		if policy == template.PolicyAbortRetry {
			spec.Guard.Retries = 1
		}
		addSpec(f, spec)
	}
	// Node names that would collide if per-node places were not scoped
	// by their node ("retired.ctn" both ways).
	collide := template.PaperSpec()
	collide.Guard.Policy = template.PolicyPerNode
	collide.Nodes[0].Name, collide.Nodes[1].Name = "ctn", "retired"
	addSpec(f, collide)
	f.Add([]byte(noDefaultsSpec))
	typed := func(err error) bool {
		return errors.Is(err, robust.ErrInvariant) || errors.Is(err, statespace.ErrStateSpaceTooLarge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := template.Parse(data)
		if err != nil {
			return
		}
		if spec.Limits.MaxStates == 0 || spec.Limits.MaxStates > fuzzMaxStates {
			spec.Limits.MaxStates = fuzzMaxStates
		}
		inst, err := template.Build(context.Background(), spec)
		if err != nil {
			if !typed(err) {
				t.Fatalf("Build error %v wraps neither robust.ErrInvariant nor statespace.ErrStateSpaceTooLarge", err)
			}
			return
		}
		_, err = core.NewScenarioAnalyzer(core.ScenarioModels{
			Params: inst.Params, Gd: inst.Gd, NdNew: inst.NdNew, NdOld: inst.NdOld, Rhos: inst.Rhos,
		}, core.Options{Parametric: core.ParametricOff})
		if err != nil && !typed(err) {
			t.Fatalf("NewScenarioAnalyzer error %v wraps neither robust.ErrInvariant nor statespace.ErrStateSpaceTooLarge", err)
		}
	})
}

// addSpecSeeds seeds f with the example scenarios and the paper spec.
func addSpecSeeds(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("scenario seeds: %v (found %d)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	addSpec(f, template.PaperSpec())
}

func addSpec(f *testing.F, spec *template.Spec) {
	data, err := json.Marshal(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}
