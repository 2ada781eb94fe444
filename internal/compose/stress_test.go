package compose

import (
	"fmt"
	"math"
	"testing"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// A larger composed model pushes the solver stack past the dense
// steady-state threshold and into SOR territory: 11 replicated machines
// give a few thousand tangible states.
func TestReplicateLargeModelSolvesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 11
	model, _, err := replicate("bigshop", n,
		[]SharedPlaceSpec{{Name: "repairQueue", Initial: 0}},
		machineTemplate(0.5))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Generate(model, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumStates() < 1000 {
		t.Fatalf("expected a large state space, got %d states", sp.NumStates())
	}
	t.Logf("states: %d", sp.NumStates())

	// The steady state (SOR at this size) must solve πQ = 0, and replicas
	// must be symmetric.
	pi, err := sp.Chain.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	residual := make([]float64, len(pi))
	for i := range pi {
		sp.Chain.Generator().Row(i, func(j int, v float64) { residual[j] += pi[i] * v })
	}
	for j, r := range residual {
		if math.Abs(r) > 1e-9 {
			t.Fatalf("(πQ)[%d] = %g, want 0", j, r)
		}
	}

	upStruct := func(idx int) *reward.Structure {
		up := model.PlaceByName(fmt.Sprintf("rep%d.up", idx))
		if up == nil {
			t.Fatalf("replica %d place missing", idx)
		}
		return reward.NewStructure().Add("up", func(mk san.Marking) bool { return mk.Get(up) == 1 }, 1)
	}
	avail, err := reward.SteadyState(sp, upStruct(0), upStruct(5))
	if err != nil {
		t.Fatal(err)
	}
	a0, a5 := avail[0], avail[1]
	if math.Abs(a0-a5) > 1e-8 {
		t.Errorf("replica symmetry broken at scale: %v vs %v", a0, a5)
	}
	if a0 <= 0.5 || a0 >= 1 {
		t.Errorf("availability = %v out of plausible range", a0)
	}
}
