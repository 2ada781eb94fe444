package compose

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// machineTemplate models one machine that fails at rate lambda and queues
// for a shared repair facility.
func machineTemplate(lambda float64) Template {
	return func(m *san.Model, prefix string, shared Shared) error {
		repairQ, ok := shared["repairQueue"]
		if !ok {
			return errors.New("missing shared place repairQueue")
		}
		up := m.AddPlace(prefix+"up", 1)
		down := m.AddPlace(prefix+"down", 0)
		fail := m.AddTimedActivity(prefix+"fail", san.ConstRate(lambda)).AddInputArc(up, 1)
		fail.AddCase(san.ConstProb(1)).AddOutputArc(down, 1).AddOutputArc(repairQ, 1)
		// The shared repairer fixes this machine when it is at the head of
		// the queue; for simplicity any queued token repairs any down
		// machine, which is symmetric under replication.
		rep := m.AddTimedActivity(prefix+"repair", san.ConstRate(2.0)).
			AddInputArc(down, 1).AddInputArc(repairQ, 1)
		rep.AddCase(san.ConstProb(1)).AddOutputArc(up, 1)
		return nil
	}
}

// replicate joins n instances of the same template (prefixes "rep0.",
// "rep1.", ...) over the shared places.
func replicate(name string, n int, sharedSpecs []SharedPlaceSpec, tmpl Template) (*san.Model, Shared, error) {
	parts := make(map[string]Template, n)
	for i := 0; i < n; i++ {
		parts[fmt.Sprintf("rep%d", i)] = tmpl
	}
	return Join(name, sharedSpecs, parts)
}

func TestReplicateSharedRepair(t *testing.T) {
	// 2 machines, shared repair queue: this is machine-repairman with a
	// single repairer of rate mu=2 and per-machine failure rate 0.5.
	model, _, err := replicate("repairshop", 2,
		[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}},
		machineTemplate(0.5))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Generate(model, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up0 := model.PlaceByName("rep0.up")
	up1 := model.PlaceByName("rep1.up")
	if up0 == nil || up1 == nil {
		t.Fatal("replica places missing")
	}
	// Steady-state availability of machine 0 must equal machine 1 by
	// symmetry, and match the birth-death closed form.
	s0 := reward.NewStructure().Add("up0", func(mk san.Marking) bool { return mk.Get(up0) == 1 }, 1)
	s1 := reward.NewStructure().Add("up1", func(mk san.Marking) bool { return mk.Get(up1) == 1 }, 1)
	avail, err := reward.SteadyState(sp, s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := avail[0], avail[1]
	if math.Abs(a0-a1) > 1e-10 {
		t.Errorf("replica asymmetry: %v vs %v", a0, a1)
	}
	// Each replica brings its own repair channel fed by the shared queue,
	// so this is the 2-machine, 2-channel birth-death chain: with
	// rho = lambda/mu = 0.25, pi(n down) ∝ {1, 2·rho, rho²}.
	rho := 0.25
	w0, w1, w2 := 1.0, 2*rho, rho*rho
	norm := w0 + w1 + w2
	// P(machine 0 up) = P(0 down) + P(1 down)/2.
	want := (w0 + w1/2) / norm
	if math.Abs(a0-want) > 1e-9 {
		t.Errorf("availability = %.6f, want %.6f", a0, want)
	}
}

func TestJoinHeterogeneousParts(t *testing.T) {
	parts := map[string]Template{
		"fast": machineTemplate(1.0),
		"slow": machineTemplate(0.1),
	}
	model, shared, err := Join("hetero",
		[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if shared["repairQueue"] == nil {
		t.Fatal("shared place not returned")
	}
	sp, err := statespace.Generate(model, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast := model.PlaceByName("fast.up")
	slow := model.PlaceByName("slow.up")
	sFast := reward.NewStructure().Add("f", func(mk san.Marking) bool { return mk.Get(fast) == 1 }, 1)
	sSlow := reward.NewStructure().Add("s", func(mk san.Marking) bool { return mk.Get(slow) == 1 }, 1)
	avail, err := reward.SteadyState(sp, sFast, sSlow)
	if err != nil {
		t.Fatal(err)
	}
	if aFast, aSlow := avail[0], avail[1]; aFast >= aSlow {
		t.Errorf("fast-failing machine more available than slow one: %v vs %v", aFast, aSlow)
	}
}

func TestJoinDeterministicStateSpace(t *testing.T) {
	build := func() int {
		model, _, err := replicate("det", 3,
			[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}},
			machineTemplate(0.5))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := statespace.Generate(model, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sp.NumStates()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("non-deterministic composition: %d vs %d states", a, b)
	}
}

// TestComposeDeterminismRegression guards the sortedLabels contract the
// template layer relies on: repeated builds of the same composition must
// produce byte-identical place indexing and state-space ordering, not
// merely the same state count (map iteration order must never leak into
// the generated artifacts).
func TestComposeDeterminismRegression(t *testing.T) {
	type snapshot struct {
		places string
		states string
	}
	build := func(kind string) snapshot {
		var (
			model *san.Model
			err   error
		)
		switch kind {
		case "replicate":
			model, _, err = replicate("det", 3,
				[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}},
				machineTemplate(0.5))
		case "join":
			model, _, err = Join("det",
				[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}},
				map[string]Template{
					"a": machineTemplate(0.5),
					"b": machineTemplate(1.5),
					"c": machineTemplate(0.25),
				})
		}
		if err != nil {
			t.Fatal(err)
		}
		sp, err := statespace.Generate(model, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		for _, p := range model.Places() {
			snap.places += p.Name() + ";"
		}
		for _, mk := range sp.States {
			snap.states += mk.Key() + "\n"
		}
		return snap
	}
	for _, kind := range []string{"replicate", "join"} {
		first := build(kind)
		for i := 0; i < 3; i++ {
			if again := build(kind); again != first {
				t.Fatalf("%s build %d diverged from first build\nplaces: %q vs %q",
					kind, i+1, again.places, first.places)
			}
		}
	}
}

func TestJoinValidation(t *testing.T) {
	if _, _, err := Join("bad", nil, map[string]Template{"x": nil}); err == nil {
		t.Error("nil template accepted")
	}
	dup := []SharedPlaceSpec{{Name: "q"}, {Name: "q"}}
	if _, _, err := Join("bad", dup, nil); err == nil {
		t.Error("duplicate shared place accepted")
	}
	failing := map[string]Template{
		"boom": func(m *san.Model, prefix string, shared Shared) error {
			return errors.New("boom")
		},
	}
	if _, _, err := Join("bad", []SharedPlaceSpec{{Name: "q"}}, failing); err == nil {
		t.Error("failing template accepted")
	}
}

// Composition semantics must survive the full solver stack: transient
// probabilities on the composed model equal the product form where the
// replicas are independent (no shared contention).
func TestReplicateIndependentReplicasProductForm(t *testing.T) {
	indep := func(m *san.Model, prefix string, _ Shared) error {
		up := m.AddPlace(prefix+"up", 1)
		down := m.AddPlace(prefix+"down", 0)
		fail := m.AddTimedActivity(prefix+"fail", san.ConstRate(0.3)).AddInputArc(up, 1)
		fail.AddCase(san.ConstProb(1)).AddOutputArc(down, 1)
		return nil
	}
	model, _, err := replicate("indep", 2, nil, indep)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Generate(model, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	up0 := model.PlaceByName("rep0.up")
	up1 := model.PlaceByName("rep1.up")
	tEnd := 1.7
	pBoth, err := reward.InstantOfTime(sp, reward.NewStructure().Add("both up", func(mk san.Marking) bool {
		return mk.Get(up0) == 1 && mk.Get(up1) == 1
	}, 1), tEnd)
	if err != nil {
		t.Fatal(err)
	}
	single := math.Exp(-0.3 * tEnd)
	if math.Abs(pBoth-single*single) > 1e-10 {
		t.Errorf("product form violated: %v vs %v", pBoth, single*single)
	}
}
