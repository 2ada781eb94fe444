package ctmc

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/sparse"
)

func TestTransientSeriesMatchesIndividualSolves(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{5, 0.5, 2, 0, 5} // unsorted, with a duplicate and zero
	series, err := c.Transient(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(ts) {
		t.Fatalf("got %d results", len(series))
	}
	for i, tt := range ts {
		want, err := transientAt(c, pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if sparse.L1Dist(series[i], want) > 1e-8 {
			t.Errorf("t=%v: series deviates by %g", tt, sparse.L1Dist(series[i], want))
		}
	}
	// The duplicate entries must be identical.
	if sparse.L1Dist(series[0], series[4]) != 0 {
		t.Error("duplicate time points differ")
	}
}

func TestTransientSeriesStiff(t *testing.T) {
	// Incremental propagation across the stiff regime: the 3-state chain
	// of TestStiffTransientMatchesAnalytic evaluated on a grid.
	mu, lambda := 1e-4, 1200.0
	g := sparse.NewCOO(3, 3)
	g.Add(0, 1, mu)
	g.Add(0, 0, -mu)
	g.Add(1, 2, lambda)
	g.Add(1, 1, -lambda)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	ts := []float64{1000, 5000, 10000}
	series, err := c.Transient(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := math.Exp(-mu * tt)
		if math.Abs(series[i][0]-want) > 1e-8 {
			t.Errorf("t=%v: P(0) = %.12f, want %.12f", tt, series[i][0], want)
		}
	}
}

func TestTransientSeriesValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	pi0, _ := c.PointMass(0)
	if _, err := c.Transient(context.Background(), pi0, []float64{1, -2}); err == nil {
		t.Error("negative time accepted")
	}
	out, err := c.Transient(context.Background(), pi0, nil)
	if err != nil || out != nil {
		t.Errorf("empty series: %v, %v", out, err)
	}
	if _, err := c.Transient(context.Background(), []float64{1}, []float64{1}); err == nil {
		t.Error("bad distribution accepted")
	}
}

// Chains past the dense-solver size limit must route through
// uniformization even at stiff horizons — bit for bit the forced
// uniformization reference — and still conserve total time in the
// accumulated solution.
func TestLargeChainAccumulatedUsesUniformization(t *testing.T) {
	if testing.Short() {
		t.Skip("large-chain solver test skipped in -short mode")
	}
	n := denseTransientLimit + 6
	c := birthDeath(t, n, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	// q*t above the uniformization budget: the n > denseTransientLimit
	// guard must still pick uniformization (dense expm on 2n x 2n would be
	// the wrong tool here).
	tt := (uniformizationBudget + 1e4) / (c.q * 1.02)
	pis, accs, err := c.TransientAccumulated(context.Background(), pi0, []float64{tt})
	if err != nil {
		t.Fatal(err)
	}
	wantPi, err := c.TransientUniformization(pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc, err := c.AccumulatedUniformization(pi0, tt)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "pi", pis[0], wantPi)
	assertBitwise(t, "acc", accs[0], wantAcc)
	if math.Abs(sparse.Sum(accs[0])-tt) > 1e-6*tt {
		t.Errorf("sum L(t) = %v, want %v", sparse.Sum(accs[0]), tt)
	}
	if math.Abs(sparse.Sum(pis[0])-1) > 1e-9 {
		t.Errorf("transient mass = %v", sparse.Sum(pis[0]))
	}
}

// singleExit builds 0 --rate--> 1 (absorbing): absorption time is
// exponential(rate).
func singleExit(t *testing.T, rate float64) *Chain {
	t.Helper()
	g := sparse.NewCOO(2, 2)
	g.Add(0, 1, rate)
	g.Add(0, 0, -rate)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The absorption-time CDF is the transient mass on the absorbing state.
func TestAbsorptionTimeCDFExponential(t *testing.T) {
	rate := 0.3
	c := singleExit(t, rate)
	pi0, _ := c.PointMass(0)
	ts := []float64{0, 1, 5, 10}
	pis, err := c.Transient(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want := 1 - math.Exp(-rate*tt)
		if math.Abs(pis[i][1]-want) > 1e-10 {
			t.Errorf("CDF(%v) = %.12f, want %.12f", tt, pis[i][1], want)
		}
	}
}
