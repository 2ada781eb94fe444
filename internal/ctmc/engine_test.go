package ctmc

import (
	"context"
	"errors"
	"math"
	"testing"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/sparse"
)

// The drift renormalization must accept round-off growth proportional to the
// number of propagation steps taken, and reject the same deviation when no
// steps can explain it — with a typed, classifiable error either way.
func TestPropagateDriftBudgetScalesWithSteps(t *testing.T) {
	c := twoState(t, 1.5, 0.5)
	drifted := []float64{0.7, 0.3 + 3e-6} // mass 1 + 3e-6, past the 1e-6 floor

	// At step zero nothing can explain the drift: typed rejection.
	if _, err := c.propagate(append([]float64(nil), drifted...), 1, 0); err == nil {
		t.Fatal("drift beyond the floor accepted at step 0")
	} else if !errors.Is(err, robust.ErrNonFinite) {
		t.Fatalf("drift rejection not classifiable as ErrNonFinite: %v", err)
	}

	// After 3000 incremental steps the same drift is within budget
	// (1e-6 + 3000·1e-9 = 4e-6): renormalize and keep going.
	got, err := c.propagate(append([]float64(nil), drifted...), 1, 3000)
	if err != nil {
		t.Fatalf("round-off drift rejected despite step budget: %v", err)
	}
	norm := make([]float64, len(drifted))
	total := drifted[0] + drifted[1]
	for i, v := range drifted {
		norm[i] = v / total
	}
	want, err := c.Transient(norm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(got, want) != 0 {
		t.Errorf("renormalized propagation deviates by %g", sparse.L1Dist(got, want))
	}

	// Destroyed mass is never renormalizable, at any step count.
	for _, bad := range [][]float64{{math.NaN(), 0.5}, {math.Inf(1), 0.5}, {-0.5, 0.5}} {
		if _, err := c.propagate(bad, 1, 1e6); !errors.Is(err, robust.ErrNonFinite) {
			t.Errorf("mass %v: got %v, want ErrNonFinite", bad, err)
		}
	}
}

// Regression for the old fixed 1e-6 cutoff: a long many-gap series must
// survive whatever drift its own propagation accrues instead of the solver
// rejecting its own output mid-series.
func TestTransientSeriesLongManyGapGrid(t *testing.T) {
	c := birthDeath(t, 8, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := make([]float64, 1500)
	for i := range ts {
		ts[i] = 0.01 * float64(i+1)
	}
	series, err := c.TransientSeries(pi0, ts)
	if err != nil {
		t.Fatalf("many-gap series failed: %v", err)
	}
	lastT := ts[len(ts)-1]
	want, err := c.Transient(pi0, lastT)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.L1Dist(series[len(ts)-1], want); d > 1e-8 {
		t.Errorf("after %d gaps, series deviates from direct solve by %g", len(ts), d)
	}
}

func TestAccumulatedSeriesMatchesPointwise(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{5, 0.5, 2, 0, 5} // unsorted, duplicate, zero
	accs, err := c.AccumulatedSeries(pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want, err := c.Accumulated(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.L1Dist(accs[i], want); d > 1e-8*(1+tt) {
			t.Errorf("t=%v: accumulated series deviates by %g", tt, d)
		}
	}
	if sparse.L1Dist(accs[0], accs[4]) != 0 {
		t.Error("duplicate time points differ")
	}
	// Total accumulated sojourn must equal the elapsed horizon exactly
	// (mass conservation through the incremental pass).
	for i, tt := range ts {
		if math.Abs(sparse.Sum(accs[i])-tt) > 1e-8*(1+tt) {
			t.Errorf("t=%v: sum L(t) = %v", tt, sparse.Sum(accs[i]))
		}
	}
}

func TestTransientAccumulatedSeriesConsistent(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{0.5, 3, 1, 7}
	pis, accs, err := c.TransientAccumulatedSeries(pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	wantPis, err := c.TransientSeries(pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	wantAccs, err := c.AccumulatedSeries(pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if d := sparse.L1Dist(pis[i], wantPis[i]); d > 1e-9 {
			t.Errorf("t=%v: combined pi deviates by %g", ts[i], d)
		}
		if d := sparse.L1Dist(accs[i], wantAccs[i]); d != 0 {
			t.Errorf("t=%v: combined acc deviates by %g", ts[i], d)
		}
	}
}

// The combined dense path must agree with the separate expm solvers: one Van
// Loan augmented exponential serving both views.
func TestTransientAccumulatedExpmMatchesSeparate(t *testing.T) {
	c := birthDeath(t, 5, 1.2, 0.7)
	pi0, _ := c.PointMass(0)
	for _, tt := range []float64{0, 0.5, 4} {
		pi, acc, err := c.transientAccumulatedExpm(context.Background(), pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		wantPi, err := c.TransientExpm(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		wantAcc, err := c.AccumulatedExpm(pi0, tt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.L1Dist(pi, wantPi); d > 1e-12 {
			t.Errorf("t=%v: pi deviates by %g", tt, d)
		}
		if d := sparse.L1Dist(acc, wantAcc); d != 0 {
			t.Errorf("t=%v: acc deviates by %g", tt, d)
		}
	}
}

// Solver-pass accounting: a series over k distinct positive horizons must
// cost k passes, while the equivalent point-wise transient+accumulated
// evaluation costs 2k.
func TestSolveOpsSeriesVsPointwise(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ts := []float64{1, 2.5, 4}

	sctx, series := obs.WithScope(context.Background())
	if _, _, err := c.TransientAccumulatedSeriesContext(sctx, pi0, ts); err != nil {
		t.Fatal(err)
	}
	seriesOps := series.Counter(obs.CtrSolvePasses)

	pctx, point := obs.WithScope(context.Background())
	for _, tt := range ts {
		if _, err := c.TransientContext(pctx, pi0, tt); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AccumulatedContext(pctx, pi0, tt); err != nil {
			t.Fatal(err)
		}
	}
	pointOps := point.Counter(obs.CtrSolvePasses)

	if seriesOps != int64(len(ts)) {
		t.Errorf("series cost %d solver passes, want %d", seriesOps, len(ts))
	}
	if pointOps != int64(2*len(ts)) {
		t.Errorf("point-wise cost %d solver passes, want %d", pointOps, 2*len(ts))
	}
}

// monotoneProbes must clamp jittering observations of a non-decreasing
// function into history-consistent values.
func TestMonotoneProbesClamp(t *testing.T) {
	m := newMonotoneProbes()
	if got := m.clamp(1, 0.5); got != 0.5 {
		t.Fatalf("first probe altered: %g", got)
	}
	// Later time, infinitesimally lower value: clamped up.
	if got := m.clamp(2, 0.5-1e-12); got != 0.5 {
		t.Errorf("non-monotone jitter not clamped up: %.15g", got)
	}
	// Earlier time, higher value: clamped down to the later observation.
	if got := m.clamp(0.5, 0.6); got != 0.5 {
		t.Errorf("non-monotone jitter not clamped down: %.15g", got)
	}
	// In-range observations pass through untouched.
	if got := m.clamp(0.25, 0.3); got != 0.3 {
		t.Errorf("consistent probe altered: %g", got)
	}
	if got := m.clamp(3, 0.8); got != 0.8 {
		t.Errorf("consistent probe altered: %g", got)
	}
}

// A quantile on a near-flat CDF plateau: half the mass absorbs almost
// instantly, the rest leaks in at 1e-7, so around q=0.5 the CDF is flat to
// ~8 decimal places and solver jitter dwarfs the local slope. The bisection
// must still land on the crossing instead of stalling on inconsistent
// probes.
func TestAbsorptionTimeQuantileNearFlatPlateau(t *testing.T) {
	g := sparse.NewCOO(4, 4)
	g.Add(0, 1, 50) // fast absorption: half the mass
	g.Add(0, 2, 50) // fast hand-off to the slow branch
	g.Add(0, 0, -100)
	g.Add(2, 3, 1e-7) // slow absorption: the plateau
	g.Add(2, 2, -1e-7)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	pi0, _ := c.PointMass(0)
	got, err := c.AbsorptionTimeQuantile(pi0, 0.5, 1e-6)
	if err != nil {
		t.Fatalf("plateau quantile failed: %v", err)
	}
	// Verify against the CDF itself: the returned point must sit at the
	// crossing — CDF at got reaches 0.5, CDF slightly below does not.
	cdf, err := c.AbsorptionTimeCDF(pi0, []float64{got * (1 + 1e-5), got * (1 - 1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	if cdf[0] < 0.5-1e-9 {
		t.Errorf("CDF just above the quantile is %.12f < 0.5", cdf[0])
	}
	if cdf[1] >= 0.5 {
		t.Errorf("CDF well below the quantile already reaches %.12f", cdf[1])
	}
}
