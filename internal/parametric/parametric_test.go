package parametric

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"guardedop/internal/mdcd"
	"guardedop/internal/sparse"
)

// agree is the public equivalence contract: 1e-9 relative with a small
// absolute floor for quantities that are themselves at round-off scale.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

func buildModels(t *testing.T, p mdcd.Params) (*mdcd.RMGd, *mdcd.RMNd, *mdcd.RMNd) {
	t.Helper()
	gd, err := mdcd.BuildRMGd(p)
	if err != nil {
		t.Fatal(err)
	}
	ndNew, err := mdcd.BuildRMNd(p, p.MuNew)
	if err != nil {
		t.Fatal(err)
	}
	ndOld, err := mdcd.BuildRMNd(p, p.MuOld)
	if err != nil {
		t.Fatal(err)
	}
	return gd, ndNew, ndOld
}

// noFailureSeries reads P(no failure by t) for every horizon in ts off one
// shared series propagation of the model's chain.
func noFailureSeries(t *testing.T, nd *mdcd.RMNd, ts []float64) []float64 {
	t.Helper()
	pis, err := nd.Space.Chain.Transient(context.Background(), nd.Space.Initial, ts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(ts))
	for i, pi := range pis {
		for s, r := range nd.NoFailureRates() {
			out[i] += r * pi[s]
		}
	}
	return out
}

func checkSystemAgainstNumeric(t *testing.T, p mdcd.Params, phis []float64) {
	t.Helper()
	gd, ndNew, ndOld := buildModels(t, p)
	sys, err := NewSystem(p, gd, ndNew, ndOld)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	// Reference values come from the shared-propagation series engine:
	// it is the most accurate of the cheap numeric routes (~3e-10
	// relative; per-point auto solves route large q·t through
	// scaling-and-squaring expm, whose ~25 squarings cost ~1e-9 on
	// their own and would contaminate a 1e-9 comparison).
	want, err := gd.MeasuresSeriesContext(context.Background(), phis)
	if err != nil {
		t.Fatal(err)
	}
	wantNewS := noFailureSeries(t, ndNew, phis)
	wantOldS := noFailureSeries(t, ndOld, phis)
	for pi, phi := range phis {
		got, err := sys.GdMeasures(phi)
		if err != nil {
			t.Fatalf("GdMeasures(%g): %v", phi, err)
		}
		w := want[pi]
		// MeanDetectionTime is deliberately absent: it is a ratio of a
		// cancelling difference of the fields below, so a relative bound
		// on it is meaningless at small phi where the difference is at
		// round-off scale in both engines.
		fields := []struct {
			name     string
			got, ref float64
		}{
			{"IntH", got.IntH, w.IntH},
			{"IntTauH", got.IntTauH, w.IntTauH},
			{"IntHF", got.IntHF, w.IntHF},
			{"PA1", got.PA1, w.PA1},
			{"PUndetectedFailure", got.PUndetectedFailure, w.PUndetectedFailure},
			{"AccDetected", got.AccDetected, w.AccDetected},
		}
		for _, f := range fields {
			// Interval measures scale like θ, so the absolute floor for
			// them rides on the relative term; the shared helper's 1e-12
			// floor only matters for near-zero probabilities.
			if !agree(f.got, f.ref) {
				t.Errorf("phi=%g %s: parametric %.15g vs numeric %.15g (rel %.3g)",
					phi, f.name, f.got, f.ref, math.Abs(f.got-f.ref)/math.Max(math.Abs(f.ref), 1e-300))
			}
		}
		if pn, err := sys.NoFailureNew(phi); err != nil || !agree(pn, wantNewS[pi]) {
			t.Errorf("phi=%g NoFailureNew: parametric %.15g vs numeric %.15g (err %v)", phi, pn, wantNewS[pi], err)
		}
		if po, err := sys.NoFailureOld(phi); err != nil || !agree(po, wantOldS[pi]) {
			t.Errorf("phi=%g NoFailureOld: parametric %.15g vs numeric %.15g (err %v)", phi, po, wantOldS[pi], err)
		}
	}
}

// TestSystemMatchesNumericPaperGrid sweeps the paper's 50-point φ grid
// (plus the exact endpoints and a point deep in the fast transient) at
// the paper's parameterization.
func TestSystemMatchesNumericPaperGrid(t *testing.T) {
	p := mdcd.DefaultParams()
	phis := []float64{0, 1e-3, 1, p.Theta}
	for i := 0; i <= 50; i++ {
		phis = append(phis, p.Theta*float64(i)/50)
	}
	checkSystemAgainstNumeric(t, p, phis)
}

// TestSystemMatchesNumericRandomized cross-validates on randomized
// in-domain parameter sets spanning the documented domain.
func TestSystemMatchesNumericRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(8))
	logU := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	for trial := 0; trial < 12; trial++ {
		p := mdcd.DefaultParams()
		// q·θ is kept within ~1e8, comparable to the paper's 2.4e7: the
		// numeric REFERENCE (auto → expm at these q·t) loses ~1e-16 per
		// squaring and would itself blow the 1e-9 budget far beyond that.
		p.Theta = logU(1e2, 3e4)
		p.Lambda = logU(1e1, 3e3)
		p.MuNew = logU(1e-7, 1e-3)
		p.MuOld = logU(1e-10, 1e-5)
		p.Coverage = 0.5 + 0.499*rng.Float64()
		p.PExt = 0.05 + 0.9*rng.Float64()
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid params: %v", trial, err)
		}
		phis := []float64{0, p.Theta * 1e-4, p.Theta}
		for i := 0; i < 7; i++ {
			phis = append(phis, p.Theta*rng.Float64())
		}
		t.Logf("trial %d: theta=%g lambda=%g muNew=%g muOld=%g c=%g pExt=%g",
			trial, p.Theta, p.Lambda, p.MuNew, p.MuOld, p.Coverage, p.PExt)
		checkSystemAgainstNumeric(t, p, phis)
	}
}

// TestCheckDomainBounds pins the validated-domain boundary: parameter
// sets that pass mdcd validation but sit outside the closed-form domain
// must be rejected with ErrOutOfDomain (deterministically, at build).
func TestCheckDomainBounds(t *testing.T) {
	in := mdcd.DefaultParams()
	if err := CheckDomain(in); err != nil {
		t.Fatalf("paper params rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*mdcd.Params)
	}{
		{"huge theta", func(p *mdcd.Params) { p.Theta = 2e6 }},
		{"huge lambda", func(p *mdcd.Params) { p.Lambda = 2e5 }},
		{"fast muNew", func(p *mdcd.Params) { p.MuNew = 0.5 }},
		{"fast muOld", func(p *mdcd.Params) { p.MuOld = 0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mdcd.DefaultParams()
			tc.mutate(&p)
			if err := p.Validate(); err != nil {
				t.Fatalf("case must stay mdcd-valid to prove the domain check is the rejector: %v", err)
			}
			if err := CheckDomain(p); !errors.Is(err, ErrOutOfDomain) {
				t.Fatalf("got %v, want ErrOutOfDomain", err)
			}
			gd, ndNew, ndOld := buildModels(t, p)
			if _, err := NewSystem(p, gd, ndNew, ndOld); !errors.Is(err, ErrOutOfDomain) {
				t.Fatalf("NewSystem: got %v, want ErrOutOfDomain", err)
			}
		})
	}
}

// TestEvaluatorRejectsOutOfRangeT pins the horizon guard: queries past
// the decomposition's validated horizon take the typed error path (and
// thus the numeric fallback) instead of extrapolating the Taylor series.
func TestEvaluatorRejectsOutOfRangeT(t *testing.T) {
	p := mdcd.DefaultParams()
	gd, ndNew, ndOld := buildModels(t, p)
	sys, err := NewSystem(p, gd, ndNew, ndOld)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, p.Theta * 1.5, math.NaN()} {
		if _, err := sys.GdMeasures(bad); !errors.Is(err, ErrOutOfDomain) {
			t.Errorf("GdMeasures(%g): got %v, want ErrOutOfDomain", bad, err)
		}
		if _, err := sys.NoFailureNew(bad); !errors.Is(err, ErrOutOfDomain) {
			t.Errorf("NoFailureNew(%g): got %v, want ErrOutOfDomain", bad, err)
		}
	}
}

// TestIntExpPolyKernel checks the accumulated-exponential kernel against
// closed forms across its three regimes (λ=0, confluent series, deep
// decay) and at the regime seam.
func TestIntExpPolyKernel(t *testing.T) {
	relOK := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-13*math.Max(math.Abs(want), 1e-300)
	}
	// λ = 0: pure monomial integral.
	if got := intExpPoly(0, 2, 3); !relOK(got, 4.0) {
		t.Errorf("I_3(0, 2) = %.17g, want 4", got)
	}
	// k = 0: (1 - e^{λt})/|λ| exactly, any regime.
	for _, c := range []struct{ lambda, t float64 }{
		{-1e-8, 1e4}, {-2, 1}, {-0.5, 700}, {-1, 1e4}, {-1320, 1e4}, {-4e-5, 1e7},
	} {
		want := (1 - math.Exp(c.lambda*c.t)) / -c.lambda
		if got := intExpPoly(c.lambda, c.t, 0); !relOK(got, want) {
			t.Errorf("I_0(%g, %g) = %.17g, want %.17g", c.lambda, c.t, got, want)
		}
	}
	// k = 1: ∫ u e^{λu} = e^{-w}·(e^w − 1 − w)/λ², with the parenthesis
	// via expm1 so the reference itself does not cancel at small w.
	relOK1 := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(want), 1e-300)
	}
	for _, c := range []struct{ lambda, t float64 }{
		{-1e-6, 1e4}, {-3, 2}, {-0.041, 9900}, {-0.039, 9900},
	} {
		w := -c.lambda * c.t
		want := math.Exp(-w) * (math.Expm1(w) - w) / (c.lambda * c.lambda)
		if got := intExpPoly(c.lambda, c.t, 1); !relOK1(got, want) {
			t.Errorf("I_1(%g, %g) = %.17g, want %.17g", c.lambda, c.t, got, want)
		}
	}
	// Continuity across the kummerSwitch seam: the two branches must
	// agree where they meet.
	tt := 1000.0
	for k := 0; k <= 6; k++ {
		below := intExpPoly(-(kummerSwitch-1e-9)/tt, tt, k)
		above := intExpPoly(-(kummerSwitch+1e-9)/tt, tt, k)
		if math.Abs(below-above) > 1e-10*math.Abs(below) {
			t.Errorf("k=%d: kernel jumps across regime seam: %.17g vs %.17g", k, below, above)
		}
	}
	// Monotone in t and t=0 anchor.
	if got := intExpPoly(-2, 0, 5); got != 0 {
		t.Errorf("I_5(-2, 0) = %g, want 0", got)
	}
}

// TestDecomposeRejectsBigSCC feeds a generator with a 3-cycle: the
// spectral route must refuse it with ErrStructure rather than attempt a
// decomposition its 2×2 block algebra cannot represent.
func TestDecomposeRejectsBigSCC(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		coo.Add(i, (i+1)%3, 1.0)
		coo.Add(i, i, -1.0)
	}
	if _, err := Decompose(coo.ToCSR(), []float64{1, 0, 0}, 100); !errors.Is(err, ErrStructure) {
		t.Fatalf("got %v, want ErrStructure", err)
	}
}
