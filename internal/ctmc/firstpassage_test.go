package ctmc

import (
	"math"
	"testing"

	"guardedop/internal/sparse"
)

func TestFirstPassageTandem(t *testing.T) {
	// 0 -> 1 -> 2 with rates r0, r1: hitting time of {2} from 0 is
	// 1/r0 + 1/r1, with probability 1.
	r0, r1 := 2.0, 5.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, r0)
	g.Add(0, 0, -r0)
	g.Add(1, 2, r1)
	g.Add(1, 1, -r1)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.FirstPassageAnalysis([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp.MeanTime[0]-(1/r0+1/r1)) > 1e-12 {
		t.Errorf("hitting time from 0 = %v, want %v", fp.MeanTime[0], 1/r0+1/r1)
	}
	if fp.HitProbability[0] != 1 || fp.HitProbability[2] != 1 || fp.MeanTime[2] != 0 {
		t.Errorf("target/hit bookkeeping wrong: %+v", fp)
	}
}

func TestFirstPassageWithCompetingTrap(t *testing.T) {
	// 0 races to target 1 (rate a) and trap 2 (rate b): hit probability
	// a/(a+b), E[T·1(hit)] = a/(a+b)^2.
	a, b := 3.0, 7.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, a)
	g.Add(0, 2, b)
	g.Add(0, 0, -(a + b))
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.FirstPassageAnalysis([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp.HitProbability[0]-a/(a+b)) > 1e-12 {
		t.Errorf("hit probability = %v, want %v", fp.HitProbability[0], a/(a+b))
	}
	want := a / math.Pow(a+b, 2)
	if math.Abs(fp.MeanTime[0]-want) > 1e-12 {
		t.Errorf("E[T·1(hit)] = %v, want %v", fp.MeanTime[0], want)
	}
	// The trap never reaches the target.
	if fp.HitProbability[2] != 0 {
		t.Errorf("trap hit probability = %v, want 0", fp.HitProbability[2])
	}
}

func TestFirstPassageCyclicChain(t *testing.T) {
	// On the ergodic two-state cycle, the hitting time of {1} from 0 is
	// exponential with the forward rate.
	c := twoState(t, 3, 1)
	meanTime, hitProb, err := c.MeanFirstPassage([]float64{1, 0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hitProb-1) > 1e-12 {
		t.Errorf("hit probability = %v, want 1", hitProb)
	}
	if math.Abs(meanTime-1.0/3.0) > 1e-12 {
		t.Errorf("mean hitting time = %v, want 1/3", meanTime)
	}
}

func TestFirstPassageValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := c.FirstPassageAnalysis(nil); err == nil {
		t.Error("empty target set accepted")
	}
	if _, err := c.FirstPassageAnalysis([]int{5}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, _, err := c.MeanFirstPassage([]float64{0.5, 0.4}, []int{1}); err == nil {
		t.Error("non-normalized distribution accepted")
	}
}

func TestFirstPassageAllTargets(t *testing.T) {
	c := twoState(t, 1, 1)
	fp, err := c.FirstPassageAnalysis([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp.MeanTime[0] != 0 || fp.MeanTime[1] != 0 || fp.HitProbability[0] != 1 {
		t.Errorf("all-target analysis wrong: %+v", fp)
	}
}

func TestFirstPassageMatchesRMGdStyleDetection(t *testing.T) {
	// A miniature of the paper's detection question: 0 (clean) -> 1
	// (contaminated) at rate mu; 1 -> 2 detected (rate c*r) or 3 failed
	// (rate (1-c)*r). Hitting {2}: probability c (since mu leads to 1
	// surely), mean time ~ 1/mu + 1/r on hitting paths.
	mu, r, cov := 1e-3, 10.0, 0.9
	g := sparse.NewCOO(4, 4)
	g.Add(0, 1, mu)
	g.Add(0, 0, -mu)
	g.Add(1, 2, cov*r)
	g.Add(1, 3, (1-cov)*r)
	g.Add(1, 1, -r)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	meanTime, hitProb, err := c.MeanFirstPassage([]float64{1, 0, 0, 0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hitProb-cov) > 1e-12 {
		t.Errorf("detection probability = %v, want %v", hitProb, cov)
	}
	condMean := meanTime / hitProb
	want := 1/mu + 1/r
	if math.Abs(condMean-want) > 1e-6*want {
		t.Errorf("conditional detection time = %v, want %v", condMean, want)
	}
}
