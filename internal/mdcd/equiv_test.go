package mdcd

import (
	"fmt"
	"testing"

	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// assertIso checks that the generated space gen is the hand-encoded
// fixture hw under the given fixture-place-name → generated-place-name
// mapping: a marking-level bijection that is the identity on state
// numbers (the generators add activities in the figures' order, so
// exploration numbers the states alike) and preserves the initial
// distribution and every aggregated transition rate bit for bit. The
// simulator samples successors in state order and the parametric layer
// decomposes the generator as numbered, so both depend on this.
func assertIso(t *testing.T, hw, gen *statespace.Space, placeMap map[string]string) {
	t.Helper()
	if hw.NumStates() != gen.NumStates() {
		t.Fatalf("state counts differ: fixture %d, generated %d", hw.NumStates(), gen.NumStates())
	}
	for i, mk := range hw.States {
		gm := make(san.Marking, len(gen.Model.Places()))
		for _, hp := range hw.Model.Places() {
			name, ok := placeMap[hp.Name()]
			if !ok {
				t.Fatalf("no mapping for fixture place %q", hp.Name())
			}
			gp := gen.Model.PlaceByName(name)
			if gp == nil {
				t.Fatalf("generated model has no place %q (mapped from %q)", name, hp.Name())
			}
			gm.Set(gp, mk.Get(hp))
		}
		if j := gen.StateIndex(gm); j != i {
			t.Fatalf("fixture state %d %s is generated state %d", i, mk.Format(hw.Model), j)
		}
		if hw.Initial[i] != gen.Initial[i] {
			t.Fatalf("initial probability differs at state %d: %g vs %g", i, hw.Initial[i], gen.Initial[i])
		}
	}
	agg := func(ts []statespace.Transition) map[[2]int]float64 {
		out := make(map[[2]int]float64, len(ts))
		for _, tr := range ts {
			out[[2]int{tr.From, tr.To}] += tr.Rate
		}
		return out
	}
	hwAgg, genAgg := agg(hw.Transitions), agg(gen.Transitions)
	if len(hwAgg) != len(genAgg) {
		t.Fatalf("transition counts differ: fixture %d, generated %d", len(hwAgg), len(genAgg))
	}
	for k, r := range hwAgg {
		if g, ok := genAgg[k]; !ok || g != r {
			t.Fatalf("rate on %d->%d: fixture %g, generated %g (present %v)", k[0], k[1], r, g, ok)
		}
	}
}

// TestGdIsomorphicToHandwritten pins the one-generator claim for Gd: the
// paper scenario regenerates the hand-encoded RMGd exactly, with perfect
// and with imperfect recovery.
func TestGdIsomorphicToHandwritten(t *testing.T) {
	for _, rs := range []float64{1, 0.5} {
		t.Run(fmt.Sprintf("recovery=%g", rs), func(t *testing.T) {
			p := DefaultParams()
			sc := PaperScenario(p)
			sc.RecoverySuccess = rs
			gd, _, err := buildGd(&sc)
			if err != nil {
				t.Fatalf("buildGd: %v", err)
			}
			hw, err := fixtureRMGd(p, rs)
			if err != nil {
				t.Fatalf("fixtureRMGd: %v", err)
			}
			assertIso(t, hw, gd.Space, map[string]string{
				"P1Nctn":    "P1.ctnN",
				"P1Octn":    "P1.ctnO",
				"P2ctn":     "P2.ctn",
				"dirty_bit": "dirty_bit",
				"detected":  "detected",
				"failure":   "failure",
			})
		})
	}
}

// TestNdIsomorphicToHandwritten covers both normal-mode variants.
func TestNdIsomorphicToHandwritten(t *testing.T) {
	p := DefaultParams()
	m := map[string]string{"P1Nctn": "P1.ctn", "P2ctn": "P2.ctn", "failure": "failure"}
	for _, tc := range []struct {
		name string
		mu   float64
	}{
		{"new", p.MuNew},
		{"old", p.MuOld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := BuildRMNd(p, tc.mu)
			if err != nil {
				t.Fatalf("BuildRMNd: %v", err)
			}
			hw, err := fixtureRMNd(p, tc.mu)
			if err != nil {
				t.Fatalf("fixtureRMNd: %v", err)
			}
			assertIso(t, hw, nd.Space, m)
		})
	}
}

// TestGpIsomorphicToHandwritten: the joint overhead model regenerates the
// hand-encoded RMGp at every Erlang stage count (the plain node's
// checkpoint-in-progress place is owned by the sender there, by the
// recipient here; the dynamics coincide).
func TestGpIsomorphicToHandwritten(t *testing.T) {
	p := DefaultParams()
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			gp, err := BuildRMGpErlang(p, k)
			if err != nil {
				t.Fatalf("BuildRMGpErlang: %v", err)
			}
			hw, err := fixtureRMGp(p, k)
			if err != nil {
				t.Fatalf("fixtureRMGp: %v", err)
			}
			assertIso(t, hw, gp.Space, map[string]string{
				"P1nReady": "P1.sready",
				"P1nExt":   "P1.sext",
				"P1nInt":   "P2.ckpt",
				"P2Ready":  "P2.ready",
				"P2Ext":    "P2.ext",
				"P1oCheck": "P1.ocheck",
				"P1oDB":    "P1.odb",
				"P2DB":     "P2.db",
			})
		})
	}
}
