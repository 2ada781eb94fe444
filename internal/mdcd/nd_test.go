package mdcd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"guardedop/internal/reward"
	"guardedop/internal/robust"
)

// The RMNdN tests cover the normal-mode generator on N processes
// (BuildNd), the n-process extension of the paper's RMNd that the
// ext-stagger experiment runs.

// ndScenario is an n-process normal-mode scenario at p's rates, process i
// manifesting faults at mus[i].
func ndScenario(p Params, mus []float64) Scenario {
	sc := Scenario{Name: "nd", Nodes: make([]Node, len(mus))}
	for i, mu := range mus {
		sc.Nodes[i] = Node{
			Name: fmt.Sprintf("P%d", i), Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld,
			Upgraded: true, MuNew: mu,
		}
	}
	return sc
}

func TestRMNdNMatchesRMNdForTwoProcesses(t *testing.T) {
	p := DefaultParams()
	hw, err := fixtureRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	noFail := make([]float64, hw.NumStates())
	for i, mk := range hw.States {
		if mk.Get(hw.Model.PlaceByName("failure")) == 0 {
			noFail[i] = 1
		}
	}
	ndn, err := BuildNd(ndScenario(p, []float64{p.MuNew, p.MuOld}), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1000, 5000, 10000} {
		pis, err := hw.Chain.Transient(context.Background(), hw.Initial, []float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		a, err := reward.Expected("P(no failure)", noFail, pis[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := ndn.NoFailureProbabilityContext(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("t=%v: RMNd fixture %v vs generated %v", tt, a, b)
		}
	}
}

func TestRMNdNSimultaneousUpgradesCompoundRisk(t *testing.T) {
	// With k components freshly upgraded (mu_new each) in a 4-process
	// system, survival degrades roughly as exp(-k*mu_new*t).
	p := DefaultParams()
	tEnd := p.Theta
	prev := 2.0
	for k := 1; k <= 4; k++ {
		mus := make([]float64, 4)
		for i := range mus {
			if i < k {
				mus[i] = p.MuNew
			} else {
				mus[i] = p.MuOld
			}
		}
		nd, err := BuildNd(ndScenario(p, mus), true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nd.NoFailureProbabilityContext(context.Background(), tEnd)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-float64(k) * p.MuNew * tEnd)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("k=%d: survival %.4f, want ≈ %.4f", k, got, want)
		}
		if got >= prev {
			t.Errorf("survival not decreasing at k=%d", k)
		}
		prev = got
	}
}

func TestRMNdNStateSpaceScales(t *testing.T) {
	p := DefaultParams()
	nd3, err := BuildNd(ndScenario(p, []float64{p.MuNew, p.MuOld, p.MuOld}), true)
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 contamination states + 1 failure state = 9.
	if nd3.Space.NumStates() != 9 {
		t.Errorf("3-process states = %d, want 9", nd3.Space.NumStates())
	}
	if got := len(nd3.Space.Model.Places()); got != 4 {
		t.Errorf("places = %d, want 3 contamination + failure", got)
	}
}

func TestRMNdNValidation(t *testing.T) {
	p := DefaultParams()
	for name, mus := range map[string][]float64{
		"single process": {1e-4},
		"negative rate":  {1e-4, -1},
		"NaN rate":       {1e-4, math.NaN()},
	} {
		_, err := BuildNd(ndScenario(p, mus), true)
		if !errors.Is(err, robust.ErrInvariant) {
			t.Errorf("%s: err = %v, want robust.ErrInvariant", name, err)
		}
	}
	for _, names := range [][2]string{{"P0", "P0"}, {"P0", ""}, {"P0", "P.1"}} {
		sc := ndScenario(p, []float64{1e-4, 1e-8})
		sc.Nodes[0].Name, sc.Nodes[1].Name = names[0], names[1]
		if _, err := BuildNd(sc, true); !errors.Is(err, robust.ErrInvariant) {
			t.Errorf("names %q: err = %v, want robust.ErrInvariant", names, err)
		}
	}
}
