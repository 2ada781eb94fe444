package mdcd

import (
	"context"
	"math"
	"testing"
)

// First-passage analysis provides an independent route to the detection
// measures: the probability of ever detecting an error must track the AT
// coverage, and the conditional mean detection time must track 1/mu_new
// (fault manifestation dominates the detection latency).
func TestDetectionViaFirstPassage(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	var detectedStates []int
	for i, mk := range gd.Space.States {
		if mk.Get(gd.Detected) == 1 {
			detectedStates = append(detectedStates, i)
		}
	}
	if len(detectedStates) == 0 {
		t.Fatal("no detected states in RMGd")
	}
	meanTime, hitProb, err := gd.Space.Chain.MeanFirstPassage(gd.Space.Initial, detectedStates)
	if err != nil {
		t.Fatal(err)
	}
	// Detection ever happens with probability ≈ c: the race between the
	// first erroneous external message being caught (c) or escaping
	// (failure). Propagation through P2 repeats the race, nudging the
	// total slightly above c.
	if hitProb < p.Coverage-0.01 || hitProb > p.Coverage+0.03 {
		t.Errorf("P(ever detected) = %.4f, want ≈ c = %.2f", hitProb, p.Coverage)
	}
	condMean := meanTime / hitProb
	if math.Abs(condMean-1/p.MuNew) > 0.05/p.MuNew {
		t.Errorf("conditional mean detection time = %.0f, want ≈ 1/mu = %.0f", condMean, 1/p.MuNew)
	}
	// Consistency with the truncated Table 1 measures: as phi -> theta-ish
	// horizons the truncated conditional mean approaches the untruncated
	// one from below.
	m, err := gd.MeasuresContext(context.Background(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MeanDetectionTime()-condMean) > 0.02*condMean {
		t.Errorf("large-phi truncated mean %v != first-passage mean %v",
			m.MeanDetectionTime(), condMean)
	}
}
