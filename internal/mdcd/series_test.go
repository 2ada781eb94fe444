package mdcd

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/reward"
)

// relClose asserts agreement within relTol relative (falling back to the
// same magnitude absolutely for values near zero).
func relClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	if math.Abs(got-want) > relTol*scale {
		t.Errorf("%s: series %.15g vs point-wise %.15g (rel err %.3g)",
			name, got, want, math.Abs(got-want)/scale)
	}
}

// The shared-propagation series must agree with point-wise MeasuresContext within
// 1e-9 relative at paper parameters, including unsorted and duplicate φ.
func TestRMGdMeasuresSeriesMatchesPointwise(t *testing.T) {
	p := DefaultParams()
	gd, err := BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{
		7000, 1000, 0, 4000, 10000, 7000, 250, // unsorted, dup, endpoints
	}
	series, err := gd.MeasuresSeriesContext(context.Background(), phis)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(phis) {
		t.Fatalf("got %d results for %d durations", len(series), len(phis))
	}
	for i, phi := range phis {
		want, err := gd.MeasuresContext(context.Background(), phi)
		if err != nil {
			t.Fatal(err)
		}
		got := series[i]
		relClose(t, "int_h", got.IntH, want.IntH, 1e-9)
		relClose(t, "int_tau_h", got.IntTauH, want.IntTauH, 1e-9)
		relClose(t, "int_int_h_f", got.IntHF, want.IntHF, 1e-9)
		relClose(t, "P(A1)", got.PA1, want.PA1, 1e-9)
		relClose(t, "P(A4)", got.PUndetectedFailure, want.PUndetectedFailure, 1e-9)
		relClose(t, "acc_detected", got.AccDetected, want.AccDetected, 1e-9)
		// Derived quotient: the φ·pDet − AccDetected cancellation amplifies
		// the primitives' 1e-9 agreement slightly.
		relClose(t, "mean detection time", got.MeanDetectionTime(), want.MeanDetectionTime(), 1e-8)
		// The state partition must survive the incremental pass too.
		total := got.PA1 + got.IntH + got.IntHF + got.PUndetectedFailure
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("phi=%g: partition sums to %.12f", phi, total)
		}
	}
	// Duplicate durations must come back identical.
	if series[0] != series[5] {
		t.Error("duplicate phi entries differ")
	}
}

// noFailureSeries reads P(no failure by t) for every horizon in ts off one
// shared series propagation of the model's chain.
func noFailureSeries(t *testing.T, nd *RMNd, ts []float64) []float64 {
	t.Helper()
	pis, err := nd.Space.Chain.Transient(context.Background(), nd.Space.Initial, ts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(ts))
	for i, pi := range pis {
		if out[i], err = reward.Expected("P(no failure)", nd.noFailRates, pi); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRMNdNoFailureSeriesMatchesPointwise(t *testing.T) {
	p := DefaultParams()
	for _, mu1 := range []float64{p.MuNew, p.MuOld} {
		nd, err := BuildRMNd(p, mu1)
		if err != nil {
			t.Fatal(err)
		}
		ts := []float64{12000, 3000, 0, 20000, 12000}
		series := noFailureSeries(t, nd, ts)
		for i, tt := range ts {
			want, err := nd.NoFailureProbabilityContext(context.Background(), tt)
			if err != nil {
				t.Fatal(err)
			}
			relClose(t, "P(no failure)", series[i], want, 1e-9)
		}
		if series[0] != series[4] {
			t.Error("duplicate horizons differ")
		}
	}
}

// The block-diagonal stacked pair must reproduce both separate RMNd
// solutions: stacking is exact by linearity (×0.5 on the initial
// distribution and ×2 on the rewards are exact binary operations), so only
// solver round-off separates the two paths.
func TestRMNdPairMatchesSeparateModels(t *testing.T) {
	p := DefaultParams()
	ndNew, err := BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	ndOld, err := BuildRMNd(p, p.MuOld)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewRMNdPair(ndNew, ndOld)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{8000, 1000, 0, 20000, 8000}
	first, second, err := pair.NoFailureSeriesContext(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		wantNew, err := ndNew.NoFailureProbabilityContext(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		wantOld, err := ndOld.NoFailureProbabilityContext(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		relClose(t, "stacked P(no failure|new)", first[i], wantNew, 1e-9)
		relClose(t, "stacked P(no failure|old)", second[i], wantOld, 1e-9)
	}
	// The single-point call solves its horizon in one gap while the series
	// propagated through intermediate points, so agreement is numerical,
	// not bit-wise.
	f1, s1, err := pair.NoFailureSeriesContext(context.Background(), []float64{8000})
	if err != nil {
		t.Fatal(err)
	}
	relClose(t, "single-point NoFailure (new)", f1[0], first[0], 1e-9)
	relClose(t, "single-point NoFailure (old)", s1[0], second[0], 1e-9)
}

func TestRMNdPairValidation(t *testing.T) {
	p := DefaultParams()
	nd, err := BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRMNdPair(nil, nd); err == nil {
		t.Error("nil first model accepted")
	}
	if _, err := NewRMNdPair(nd, &RMNd{}); err == nil {
		t.Error("ungenerated second model accepted")
	}
}
