package template_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/statespace"
	"guardedop/internal/template"
)

func scenarioAnalyzer(t *testing.T, spec *template.Spec, o core.Options) (*template.Instance, *core.Analyzer) {
	t.Helper()
	inst, err := template.Build(context.Background(), spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ana, err := core.NewScenarioAnalyzer(core.ScenarioModels{
		Params: inst.Params,
		Gd:     inst.Gd,
		NdNew:  inst.NdNew,
		NdOld:  inst.NdOld,
		Rhos:   inst.Rhos,
	}, o)
	if err != nil {
		t.Fatalf("NewScenarioAnalyzer: %v", err)
	}
	return inst, ana
}

// TestPaperSpecReproducesYCurve is the tentpole acceptance gate: the
// templated canonical scenario reproduces the handwritten pipeline's
// Y(φ) over the paper's sweep grid to 1e-9 relative.
func TestPaperSpecReproducesYCurve(t *testing.T) {
	spec := template.PaperSpec()
	_, scen := scenarioAnalyzer(t, spec, core.Options{})
	hand, err := core.NewAnalyzer(spec.Params())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	phis := core.SweepGrid(spec.Theta, 50)
	if len(phis) < 50 {
		t.Fatalf("SweepGrid returned %d points, want at least 50", len(phis))
	}
	for _, phi := range phis {
		want, err := hand.Evaluate(phi)
		if err != nil {
			t.Fatalf("handwritten Evaluate(%g): %v", phi, err)
		}
		got, err := scen.Evaluate(phi)
		if err != nil {
			t.Fatalf("scenario Evaluate(%g): %v", phi, err)
		}
		if rel := math.Abs(got.Y-want.Y) / math.Abs(want.Y); rel > 1e-9 {
			t.Fatalf("Y(%g) = %.15g, handwritten %.15g (rel %.3g > 1e-9)",
				phi, got.Y, want.Y, rel)
		}
	}
}

// TestPolicyCurvesOrdered solves a small sweep under every guard policy:
// all must produce finite curves, and the degenerate reductions must
// agree with the global policy exactly.
func TestPolicyCurvesOrdered(t *testing.T) {
	var yGlobal float64
	for _, policy := range template.Policies() {
		spec := template.PaperSpec()
		spec.Name = "paper-" + string(policy)
		spec.Guard = template.GuardSpec{Policy: policy}
		if policy == template.PolicyAbortRetry {
			spec.Guard.Retries = 2
		}
		_, ana := scenarioAnalyzer(t, spec, core.Options{})
		res, err := ana.Evaluate(spec.Theta / 20)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", policy, err)
		}
		if !(res.Y > 0 && res.Y < 2*spec.Theta) {
			t.Fatalf("%s: Y = %g out of (0, 2θ)", policy, res.Y)
		}
		if policy == template.PolicyGlobal {
			yGlobal = res.Y
		}
	}
	// Per-node with a single upgrade is the global policy.
	spec := template.PaperSpec()
	spec.Guard = template.GuardSpec{Policy: template.PolicyPerNode}
	_, ana := scenarioAnalyzer(t, spec, core.Options{})
	res, err := ana.Evaluate(spec.Theta / 20)
	if err != nil {
		t.Fatalf("per-node Evaluate: %v", err)
	}
	if rel := math.Abs(res.Y-yGlobal) / yGlobal; rel > 1e-9 {
		t.Fatalf("per-node K=1 Y = %.15g differs from global %.15g (rel %g)",
			res.Y, yGlobal, rel)
	}
}

// threeNodeSpec is the smallest beyond-paper scenario: three nodes, one
// upgraded, paper rates.
func threeNodeSpec() *template.Spec {
	s := template.PaperSpec()
	s.Name = "three-node"
	s.Nodes = append(s.Nodes, template.NodeSpec{Name: "P3"})
	return s
}

// eightNodeSpec exercises the scale path: eight nodes, two simultaneous
// upgrades, heterogeneous rates. The rates are scaled down relative to
// the paper's so the uniformization budget covers the ~10^3-state chain.
func eightNodeSpec() *template.Spec {
	s := &template.Spec{
		Name:     "eight-node",
		Theta:    100,
		Coverage: 0.95,
		Alpha:    360,
		Beta:     720,
		Defaults: template.NodeDefaults{Lambda: 6, PExt: 0.3, MuOld: 0.0002},
		Guard:    template.GuardSpec{Policy: template.PolicyPerNode},
	}
	for i := 0; i < 8; i++ {
		ns := template.NodeSpec{Name: nodeName(i)}
		switch i {
		case 0:
			ns.Upgrade = &template.UpgradeSpec{MuNew: 0.002}
		case 1:
			ns.Upgrade = &template.UpgradeSpec{MuNew: 0.004}
			ns.Lambda = 9
		case 2:
			ns.PExt = 0.5
		}
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

func nodeName(i int) string { return string(rune('A'+i)) + "node" }

// TestScaledScenarios builds and solves beyond-paper scenarios through
// the full pipeline, checking counters and basic sanity of the results.
func TestScaledScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *template.Spec
	}{
		{"three-node", threeNodeSpec()},
		{"eight-node", eightNodeSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer()
			ctx := obs.WithTracer(context.Background(), tr)
			inst, err := template.Build(ctx, tc.spec)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if got := tr.Counter(obs.CtrTemplateInstances); got != 1 {
				t.Errorf("template.instances = %d, want 1", got)
			}
			if got := tr.Counter(obs.CtrTemplateStates); got != int64(inst.TotalStates) || got == 0 {
				t.Errorf("template.states = %d, want %d (non-zero)", got, inst.TotalStates)
			}
			if len(inst.Rhos) != len(tc.spec.Nodes) {
				t.Fatalf("got %d rhos for %d nodes", len(inst.Rhos), len(tc.spec.Nodes))
			}
			wantMF := tc.name == "eight-node"
			if inst.GpMeanField != wantMF {
				t.Errorf("GpMeanField = %v, want %v", inst.GpMeanField, wantMF)
			}
			for i, rho := range inst.Rhos {
				if !(rho > 0 && rho <= 1) {
					t.Fatalf("rho[%d] = %g out of (0, 1]", i, rho)
				}
			}
			ana, err := core.NewScenarioAnalyzer(core.ScenarioModels{
				Params: inst.Params,
				Gd:     inst.Gd,
				NdNew:  inst.NdNew,
				NdOld:  inst.NdOld,
				Rhos:   inst.Rhos,
			}, core.Options{})
			if err != nil {
				t.Fatalf("NewScenarioAnalyzer: %v", err)
			}
			for _, frac := range []float64{0.02, 0.1, 0.5} {
				res, err := ana.Evaluate(frac * tc.spec.Theta)
				if err != nil {
					t.Fatalf("Evaluate(%g·θ): %v", frac, err)
				}
				limit := float64(len(tc.spec.Nodes)) * tc.spec.Theta
				if !(res.Y > 0 && res.Y < limit) {
					t.Fatalf("Y(%g·θ) = %g out of (0, %g)", frac, res.Y, limit)
				}
			}
		})
	}
}

// TestSpecValidation is the table over malformed specs: every rejection
// must be a typed robust.ErrInvariant.
func TestSpecValidation(t *testing.T) {
	mutate := func(f func(*template.Spec)) *template.Spec {
		s := template.PaperSpec()
		f(s)
		return s
	}
	cases := []struct {
		name string
		spec *template.Spec
	}{
		{"empty name", mutate(func(s *template.Spec) { s.Name = "" })},
		{"zero theta", mutate(func(s *template.Spec) { s.Theta = 0 })},
		{"negative theta", mutate(func(s *template.Spec) { s.Theta = -1 })},
		{"coverage above one", mutate(func(s *template.Spec) { s.Coverage = 1.5 })},
		{"zero alpha", mutate(func(s *template.Spec) { s.Alpha = 0 })},
		{"unknown policy", mutate(func(s *template.Spec) { s.Guard.Policy = "optimistic" })},
		{"retries without abort-retry", mutate(func(s *template.Spec) { s.Guard.Retries = 1 })},
		{"negative retries", mutate(func(s *template.Spec) {
			s.Guard = template.GuardSpec{Policy: template.PolicyAbortRetry, Retries: -1}
		})},
		{"negative limits", mutate(func(s *template.Spec) { s.Limits.MaxStates = -1 })},
		{"single node", mutate(func(s *template.Spec) { s.Nodes = s.Nodes[:1] })},
		{"bad node name", mutate(func(s *template.Spec) { s.Nodes[1].Name = "2nd node" })},
		{"duplicate node name", mutate(func(s *template.Spec) { s.Nodes[1].Name = "P1" })},
		{"p_ext out of range", mutate(func(s *template.Spec) { s.Nodes[1].PExt = 1 })},
		{"no upgraded node", mutate(func(s *template.Spec) { s.Nodes[0].Upgrade = nil })},
		{"all nodes upgraded", mutate(func(s *template.Spec) {
			s.Nodes[1].Upgrade = &template.UpgradeSpec{MuNew: 0.1}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("error %v is not robust.ErrInvariant", err)
			}
		})
	}
	if err := template.PaperSpec().Validate(); err != nil {
		t.Fatalf("PaperSpec invalid: %v", err)
	}
}

// TestParseRoundTrip: a spec survives JSON encode/parse with its hash
// stable, and Parse rejects malformed JSON with a typed error.
func TestParseRoundTrip(t *testing.T) {
	spec := template.PaperSpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := template.Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Hash() != spec.Hash() {
		t.Fatalf("hash changed across round trip: %s vs %s", got.Hash(), spec.Hash())
	}
	if _, err := template.Parse([]byte("{not json")); !errors.Is(err, robust.ErrInvariant) {
		t.Fatalf("malformed JSON error %v is not robust.ErrInvariant", err)
	}
	// Specs written for the retired limits.max_vanishing_depth field keep
	// parsing; the field is ignored.
	legacy, err := template.Parse([]byte(legacyLimitsSpec))
	if err != nil {
		t.Fatalf("Parse legacy limits: %v", err)
	}
	if legacy.Limits.MaxStates != 4096 {
		t.Fatalf("legacy limits = %+v, want max_states 4096", legacy.Limits)
	}
}

// sameSpace reports the first difference between two generated state
// spaces: place names, markings in state order, initial vector and
// generator entries, all compared exactly.
func sameSpace(a, b *statespace.Space) error {
	pa, pb := a.Model.Places(), b.Model.Places()
	if len(pa) != len(pb) {
		return fmt.Errorf("place counts %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name() != pb[i].Name() {
			return fmt.Errorf("place %d: %q vs %q", i, pa[i].Name(), pb[i].Name())
		}
	}
	if a.NumStates() != b.NumStates() {
		return fmt.Errorf("state counts %d vs %d", a.NumStates(), b.NumStates())
	}
	for i := range a.States {
		if !slices.Equal(a.States[i], b.States[i]) {
			return fmt.Errorf("state %d: %v vs %v", i, a.States[i], b.States[i])
		}
		if a.Initial[i] != b.Initial[i] {
			return fmt.Errorf("initial[%d]: %v vs %v", i, a.Initial[i], b.Initial[i])
		}
	}
	return sameGenerator(a, b)
}

// sameGenerator reports the first generator row where two spaces with
// the same state count differ.
func sameGenerator(a, b *statespace.Space) error {
	type entry struct {
		c int
		v float64
	}
	ga, gb := a.Chain.Generator(), b.Chain.Generator()
	for r := 0; r < a.NumStates(); r++ {
		var ra, rb []entry
		ga.Row(r, func(c int, v float64) { ra = append(ra, entry{c, v}) })
		gb.Row(r, func(c int, v float64) { rb = append(rb, entry{c, v}) })
		if !slices.Equal(ra, rb) {
			return fmt.Errorf("generator row %d: %v vs %v", r, ra, rb)
		}
	}
	return nil
}

// TestOneModelSource: the mdcd.Build* entry points and template.Build on
// the paper spec run the same generator, so at the Table 3 baseline with
// α=β=2500 and θ=5000 they produce identical chains, and the two analyzer
// constructors give bitwise-equal Y(φ) over the 51-point grid.
func TestOneModelSource(t *testing.T) {
	p := mdcd.DefaultParams()
	p.Alpha, p.Beta, p.Theta = 2500, 2500, 5000
	spec := template.PaperSpec()
	spec.Alpha, spec.Beta, spec.Theta = p.Alpha, p.Beta, p.Theta
	if spec.Params() != p {
		t.Fatalf("spec params %+v, want %+v", spec.Params(), p)
	}
	inst, scen := scenarioAnalyzer(t, spec, core.Options{})

	gd, err := mdcd.BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := mdcd.BuildRMGp(p)
	if err != nil {
		t.Fatal(err)
	}
	ndNew, err := mdcd.BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	ndOld, err := mdcd.BuildRMNd(p, p.MuOld)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		built, gen *statespace.Space
	}{
		{"Gd", gd.Space, inst.Gd.Space},
		{"Gp", gp.Space, inst.GpSpace},
		{"Nd(mu_new)", ndNew.Space, inst.NdNew.Space},
		{"Nd(mu_old)", ndOld.Space, inst.NdOld.Space},
	} {
		if c.gen == nil {
			t.Fatalf("%s: template built no space", c.name)
		}
		if err := sameSpace(c.built, c.gen); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	hand, err := core.NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range core.SweepGrid(p.Theta, 50) {
		want, err := hand.Evaluate(phi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scen.Evaluate(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got.Y != want.Y {
			t.Errorf("Y(%g): scenario %.17g, NewAnalyzer %.17g", phi, got.Y, want.Y)
		}
	}
}

// TestGdPolicyReductions: the alternative guard policies degenerate to
// the global policy at their trivial parameter points, state for state:
// the variant's Gd visits the global policy's markings in the same order
// with the same generator, its extra policy place a function of them —
// retired tracks detected (except in collapsed failure states, where
// fail resets it), and the zero retry budget stays zero.
func TestGdPolicyReductions(t *testing.T) {
	global, err := template.Build(context.Background(), template.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	g := global.Gd.Space
	for _, tc := range []struct {
		name  string
		guard template.GuardSpec
		extra string
	}{
		{"per-node single upgrade", template.GuardSpec{Policy: template.PolicyPerNode}, "P1.retired"},
		{"abort-retry zero budget", template.GuardSpec{Policy: template.PolicyAbortRetry}, "retry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := template.PaperSpec()
			spec.Guard = tc.guard
			inst, err := template.Build(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			v := inst.Gd.Space
			if v.NumStates() != g.NumStates() {
				t.Fatalf("states: variant %d, global %d", v.NumStates(), g.NumStates())
			}
			extra := v.Model.PlaceByName(tc.extra)
			if extra == nil {
				t.Fatalf("variant lacks place %q", tc.extra)
			}
			for i, mk := range g.States {
				for _, pl := range g.Model.Places() {
					if got := v.States[i].Get(v.Model.PlaceByName(pl.Name())); got != mk.Get(pl) {
						t.Fatalf("state %d place %s: variant %d, global %d", i, pl.Name(), got, mk.Get(pl))
					}
				}
				want := 0
				if tc.guard.Policy == template.PolicyPerNode && mk.Get(global.Gd.Failure) == 0 {
					want = mk.Get(global.Gd.Detected)
				}
				if got := v.States[i].Get(extra); got != want {
					t.Fatalf("state %d: %s = %d, want %d", i, tc.extra, got, want)
				}
			}
			if err := sameGenerator(g, v); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGpMeanFieldClose sanity-checks the mean-field fallback against the
// exact joint solution on the canonical scenario: an approximation, but
// it must land in the right neighbourhood (the overheads are small, so a
// loose relative tolerance on 1-ρ is the meaningful comparison). A state
// limit below the joint Gp's 36 states (but above Gd's 22) forces the
// fallback.
func TestGpMeanFieldClose(t *testing.T) {
	joint, err := template.Build(context.Background(), template.PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := template.PaperSpec()
	spec.Limits.MaxStates = 30
	mf, err := template.Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if joint.GpMeanField || !mf.GpMeanField {
		t.Fatalf("mean-field flags: joint %v, limited %v", joint.GpMeanField, mf.GpMeanField)
	}
	for i := range joint.Rhos {
		ohJoint, ohMF := 1-joint.Rhos[i], 1-mf.Rhos[i]
		if math.Abs(ohJoint-ohMF) > 0.25*ohJoint {
			t.Errorf("node %d overhead: joint %.6g, mean-field %.6g (>25%% apart)",
				i, ohJoint, ohMF)
		}
	}
}
