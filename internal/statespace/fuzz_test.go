package statespace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"guardedop/internal/san"
	"guardedop/internal/sparse"
)

// randomSAN builds a structurally random (but well-formed) SAN: a handful
// of places with small initial markings and timed activities with random
// arcs and two-way probabilistic cases.
func randomSAN(rng *rand.Rand) *san.Model {
	m := san.NewModel("fuzz")
	nPlaces := 2 + rng.Intn(4)
	places := make([]*san.Place, nPlaces)
	for i := range places {
		places[i] = m.AddPlace(fmt.Sprintf("p%d", i), rng.Intn(3))
	}
	nActs := 1 + rng.Intn(5)
	for i := 0; i < nActs; i++ {
		a := m.AddTimedActivity(fmt.Sprintf("t%d", i), san.ConstRate(0.1+rng.Float64()*5))
		a.AddInputArc(places[rng.Intn(nPlaces)], 1)
		if rng.Float64() < 0.5 {
			pA := 0.2 + 0.6*rng.Float64()
			a.AddCase(san.ConstProb(pA)).AddOutputArc(places[rng.Intn(nPlaces)], 1)
			a.AddCase(san.ConstProb(1-pA)).AddOutputArc(places[rng.Intn(nPlaces)], 1)
		} else {
			a.AddCase(san.ConstProb(1)).AddOutputArc(places[rng.Intn(nPlaces)], 1)
		}
	}
	return m
}

// Property: for any random well-formed SAN, Generate either returns a valid
// space (point-mass initial distribution, valid generator, self-loop-free
// chain, consistent transition labels) or fails with a *reported* error —
// never panics, never returns an inconsistent space.
func TestGenerateRandomSANProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSAN(rng)
		sp, err := Generate(m, Options{MaxStates: 20000})
		if err != nil {
			// State explosions are legitimate diagnoses for random
			// structures; what matters is that the failure was reported
			// rather than a panic or a bogus space.
			return true
		}
		if sp.Initial[0] != 1 || sparse.Sum(sp.Initial) != 1 {
			return false
		}
		// The generator must be a valid CTMC (rows sum to zero) — already
		// enforced by ctmc.New, so reaching here implies it. Check the
		// labelled transitions against the generator: off-diagonal rates
		// must match the summed labels.
		n := sp.NumStates()
		sums := make(map[[2]int]float64)
		for _, tr := range sp.Transitions {
			if tr.From < 0 || tr.From >= n || tr.To < 0 || tr.To >= n || tr.Rate <= 0 {
				return false
			}
			if tr.From != tr.To {
				sums[[2]int{tr.From, tr.To}] += tr.Rate
			}
		}
		ok := true
		for s := 0; s < n; s++ {
			sp.Chain.Generator().Row(s, func(c int, v float64) {
				if c != s && v > 0 {
					if math.Abs(sums[[2]int{s, c}]-v) > 1e-9*(1+v) {
						ok = false
					}
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
