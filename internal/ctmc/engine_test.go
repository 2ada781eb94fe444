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
	// propagate is one series step: renormalize, then advance by dt.
	propagate := func(pi []float64, dt float64, steps int) ([]float64, error) {
		renorm, err := renormalizeDrift(pi, steps)
		if err != nil {
			return nil, err
		}
		next, _, err := c.solve(context.Background(), renorm, dt, false)
		return next, err
	}
	drifted := []float64{0.7, 0.3 + 3e-6} // mass 1 + 3e-6, past the 1e-6 floor

	// At step zero nothing can explain the drift: typed rejection.
	if _, err := propagate(append([]float64(nil), drifted...), 1, 0); err == nil {
		t.Fatal("drift beyond the floor accepted at step 0")
	} else if !errors.Is(err, robust.ErrNonFinite) {
		t.Fatalf("drift rejection not classifiable as ErrNonFinite: %v", err)
	}

	// After 3000 incremental steps the same drift is within budget
	// (1e-6 + 3000·1e-9 = 4e-6): renormalize and keep going.
	got, err := propagate(append([]float64(nil), drifted...), 1, 3000)
	if err != nil {
		t.Fatalf("round-off drift rejected despite step budget: %v", err)
	}
	norm := make([]float64, len(drifted))
	total := drifted[0] + drifted[1]
	for i, v := range drifted {
		norm[i] = v / total
	}
	want, _, err := c.solve(context.Background(), norm, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.L1Dist(got, want) != 0 {
		t.Errorf("renormalized propagation deviates by %g", sparse.L1Dist(got, want))
	}

	// Destroyed mass is never renormalizable, at any step count.
	for _, bad := range [][]float64{{math.NaN(), 0.5}, {math.Inf(1), 0.5}, {-0.5, 0.5}} {
		if _, err := propagate(bad, 1, 1e6); !errors.Is(err, robust.ErrNonFinite) {
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
	series, err := c.Transient(context.Background(), pi0, ts)
	if err != nil {
		t.Fatalf("many-gap series failed: %v", err)
	}
	lastT := ts[len(ts)-1]
	want, err := transientAt(c, pi0, lastT)
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
	_, accs, err := c.TransientAccumulated(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		want, err := accumulatedAt(c, pi0, tt)
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
	pis, _, err := c.TransientAccumulated(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	wantPis, err := c.Transient(context.Background(), pi0, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if d := sparse.L1Dist(pis[i], wantPis[i]); d > 1e-9 {
			t.Errorf("t=%v: combined pi deviates by %g", ts[i], d)
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
	if _, _, err := c.TransientAccumulated(sctx, pi0, ts); err != nil {
		t.Fatal(err)
	}
	seriesOps := series.Counter(obs.CtrSolvePasses)

	pctx, point := obs.WithScope(context.Background())
	for _, tt := range ts {
		if _, err := c.Transient(pctx, pi0, []float64{tt}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TransientAccumulated(pctx, pi0, []float64{tt}); err != nil {
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

// The engine rule lives in solve alone: a series of one must reproduce the
// forced-engine reference bit for bit, uniformization at q·t just below
// the budget and the dense path just above it.
func TestAutoSelectionMatchesForcedEngineBitwise(t *testing.T) {
	c := birthDeath(t, 6, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	below := uniformizationBudget / c.q
	for c.q*below > uniformizationBudget {
		below = math.Nextafter(below, 0)
	}
	above := math.Nextafter(below, math.Inf(1))
	for c.q*above <= uniformizationBudget {
		above = math.Nextafter(above, math.Inf(1))
	}
	for _, tc := range []struct {
		name            string
		t               float64
		wantPi, wantAcc func([]float64, float64) ([]float64, error)
	}{
		{"uniformization below budget", below, c.TransientUniformization, c.AccumulatedUniformization},
		{"expm above budget", above, c.TransientExpm, c.AccumulatedExpm},
	} {
		pis, err := c.Transient(context.Background(), pi0, []float64{tc.t})
		if err != nil {
			t.Fatal(err)
		}
		_, accs, err := c.TransientAccumulated(context.Background(), pi0, []float64{tc.t})
		if err != nil {
			t.Fatal(err)
		}
		wantPi, err := tc.wantPi(pi0, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		wantAcc, err := tc.wantAcc(pi0, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, tc.name+" pi", pis[0], wantPi)
		assertBitwise(t, tc.name+" acc", accs[0], wantAcc)
	}
}

func assertBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// A zero-length solve hands back pi0 on every engine and is no solver pass.
func TestZeroLengthSolveIsNoPass(t *testing.T) {
	c := birthDeath(t, 4, 2.0, 3.0)
	pi0, _ := c.PointMass(0)
	ctx, scope := obs.WithScope(context.Background())
	if _, _, err := c.uniformize(ctx, pi0, 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.transientExpm(ctx, pi0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.transientAccumulatedExpm(ctx, pi0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TransientAccumulated(ctx, pi0, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := scope.Counter(obs.CtrSolvePasses); got != 0 {
		t.Errorf("zero-length solves counted %d passes, want 0", got)
	}
}
