package core

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/mdcd"
)

func newAnalyzer(t *testing.T, mutate func(*mdcd.Params)) *Analyzer {
	t.Helper()
	p := mdcd.DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	a, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Y(0) = 1 identically: with no guarded operation, the degradation ratio is
// one by construction.
func TestYAtPhiZeroIsOne(t *testing.T) {
	a := newAnalyzer(t, nil)
	r, err := a.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Y-1) > 1e-9 {
		t.Errorf("Y(0) = %.12f, want 1", r.Y)
	}
	if r.YS2 != 0 {
		t.Errorf("Y^S2(0) = %v, want 0 (S2 degenerate at phi=0)", r.YS2)
	}
	if math.Abs(r.EW0-r.EWPhi) > 1e-6 {
		t.Errorf("E[W_0] = %v but E[W_phi=0] = %v, want equal", r.EW0, r.EWPhi)
	}
}

// Figure 9, solid-dot curve: base parameters give an interior optimum at
// phi = 7000 over the paper's grid.
func TestFigure9BaseOptimumAt7000(t *testing.T) {
	a := newAnalyzer(t, nil)
	best, err := a.OptimalPhi(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if best.Phi != 7000 {
		t.Errorf("optimal phi = %v, want 7000 (paper Fig. 9)", best.Phi)
	}
	// The paper's maximum is ≈1.45; the reconstructed model peaks within
	// ~0.1 of it. Guard the band rather than the exact value.
	if best.Y < 1.35 || best.Y > 1.65 {
		t.Errorf("max Y = %.3f, want within [1.35, 1.65] (paper ≈ 1.45)", best.Y)
	}
}

// Figure 9, hollow-dot curve: halving mu_new moves the optimum down to 5000.
func TestFigure9HalvedFaultRateOptimumAt5000(t *testing.T) {
	a := newAnalyzer(t, func(p *mdcd.Params) { p.MuNew = 0.5e-4 })
	best, err := a.OptimalPhi(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if best.Phi != 5000 {
		t.Errorf("optimal phi = %v, want 5000 (paper Fig. 9)", best.Phi)
	}
}

// Figure 10: higher safeguard overhead (alpha=beta=2500) moves the optimum
// from 7000 down to 6000.
func TestFigure10OverheadOptimumAt6000(t *testing.T) {
	a := newAnalyzer(t, func(p *mdcd.Params) { p.Alpha, p.Beta = 2500, 2500 })
	best, err := a.OptimalPhi(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if best.Phi != 6000 {
		t.Errorf("optimal phi = %v, want 6000 (paper Fig. 10)", best.Phi)
	}
}

// Figure 11: the optimum is insensitive to coverage (stays at 6000 for
// c in {0.95, 0.75, 0.50} at alpha=beta=2500) while max Y drops sharply.
func TestFigure11CoverageSensitivity(t *testing.T) {
	var maxY []float64
	for _, c := range []float64{0.95, 0.75, 0.50} {
		a := newAnalyzer(t, func(p *mdcd.Params) {
			p.Coverage = c
			p.Alpha, p.Beta = 2500, 2500
		})
		best, err := a.OptimalPhi(SweepGrid(10000, 10))
		if err != nil {
			t.Fatal(err)
		}
		if best.Phi != 6000 {
			t.Errorf("c=%v: optimal phi = %v, want 6000 (paper Fig. 11)", c, best.Phi)
		}
		maxY = append(maxY, best.Y)
	}
	if !(maxY[0] > maxY[1] && maxY[1] > maxY[2]) {
		t.Errorf("max Y not decreasing in coverage: %v", maxY)
	}
	if maxY[2] > 1.25 {
		t.Errorf("max Y at c=0.50 = %.3f, want ≈ 1.15 (paper Fig. 11)", maxY[2])
	}
}

// Section 6 text: at c = 0.10 guarded operation is never worthwhile — Y < 1
// for every positive phi and Y decreases with phi.
func TestVeryLowCoverageMakesGOPWorthless(t *testing.T) {
	a := newAnalyzer(t, func(p *mdcd.Params) {
		p.Coverage = 0.10
		p.Alpha, p.Beta = 2500, 2500
	})
	results, err := a.Curve(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, r := range results {
		if r.Phi > 0 && r.Y >= 1 {
			t.Errorf("phi=%v: Y = %.4f, want < 1 at c=0.10", r.Phi, r.Y)
		}
		if r.Y > prev+1e-9 {
			t.Errorf("Y not decreasing at phi=%v", r.Phi)
		}
		prev = r.Y
	}
}

// Figure 12: shrinking theta to 5000 moves the optimum to 2500 (mu_new=1e-4)
// and the post-peak decline is steeper than at theta=10000.
func TestFigure12ShorterHorizon(t *testing.T) {
	a := newAnalyzer(t, func(p *mdcd.Params) { p.Theta = 5000 })
	results, err := a.Curve(SweepGrid(5000, 10))
	if err != nil {
		t.Fatal(err)
	}
	best := results[0]
	for _, r := range results {
		if r.Y > best.Y {
			best = r
		}
	}
	if best.Phi != 2500 {
		t.Errorf("optimal phi = %v, want 2500 (paper Fig. 12)", best.Phi)
	}
	// Relative drop from the peak to phi=theta must exceed the theta=10000
	// case (reliability over a shorter remaining horizon favours an earlier
	// cutoff; see the paper's discussion of Fig. 12).
	dropShort := (best.Y - results[len(results)-1].Y) / best.Y

	aLong := newAnalyzer(t, nil)
	resultsLong, err := aLong.Curve(SweepGrid(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	bestLong := resultsLong[0]
	for _, r := range resultsLong {
		if r.Y > bestLong.Y {
			bestLong = r
		}
	}
	dropLong := (bestLong.Y - resultsLong[len(resultsLong)-1].Y) / bestLong.Y
	if dropShort <= dropLong {
		t.Errorf("post-peak drop: theta=5000 gives %.4f, theta=10000 gives %.4f; want steeper for shorter theta",
			dropShort, dropLong)
	}
}

func TestEvaluateRejectsBadPhi(t *testing.T) {
	a := newAnalyzer(t, nil)
	for _, phi := range []float64{-1, 10001, math.NaN()} {
		if _, err := a.Evaluate(phi); err == nil {
			t.Errorf("Evaluate(%v) accepted out-of-range phi", phi)
		}
	}
}

func TestResultInternalConsistency(t *testing.T) {
	a := newAnalyzer(t, nil)
	for _, phi := range []float64{0, 2500, 7000, 10000} {
		r, err := a.Evaluate(phi)
		if err != nil {
			t.Fatal(err)
		}
		if r.EWI != 2*a.Params().Theta {
			t.Errorf("EWI = %v", r.EWI)
		}
		if math.Abs(r.EWPhi-(r.YS1+r.YS2)) > 1e-9 {
			t.Errorf("EWPhi != YS1+YS2 at phi=%v", phi)
		}
		if r.EWPhi < 0 || r.EWPhi > r.EWI {
			t.Errorf("EWPhi = %v out of [0, %v]", r.EWPhi, r.EWI)
		}
		if r.Gamma < 0 || r.Gamma > 1 {
			t.Errorf("gamma = %v out of [0,1]", r.Gamma)
		}
		if r.PS1 < 0 || r.PS1 > 1 {
			t.Errorf("P(S1) = %v out of [0,1]", r.PS1)
		}
		if r.IntF < 0 || r.IntF > 1 {
			t.Errorf("IntF = %v out of [0,1]", r.IntF)
		}
		if phi > 0 {
			want := r.Gd.PA1 * r.PNoFailNewRem
			if math.Abs(r.PS1-want) > 1e-12 {
				t.Errorf("PS1 decomposition violated at phi=%v", phi)
			}
		}
	}
}

// The benefit from guarded operation is monotone in coverage at a fixed phi:
// better detection can only help.
func TestYMonotoneInCoverage(t *testing.T) {
	prev := -1.0
	for _, c := range []float64{0.2, 0.5, 0.8, 0.95, 1.0} {
		a := newAnalyzer(t, func(p *mdcd.Params) { p.Coverage = c })
		r, err := a.Evaluate(6000)
		if err != nil {
			t.Fatal(err)
		}
		if r.Y < prev-1e-9 {
			t.Errorf("Y(6000) not monotone in c at c=%v", c)
		}
		prev = r.Y
	}
}

// Dimensionless similarity: the dependability side of Y depends on mu*theta
// and phi/theta, so halving mu_new matches halving theta point-for-point up
// to the (unchanged) overhead terms. This is the scaling the paper's
// Figures 9 and 12 exhibit. It also pins down determinism across builds.
func TestScalingSimilarity(t *testing.T) {
	aMu := newAnalyzer(t, func(p *mdcd.Params) { p.MuNew = 0.5e-4 })
	aTheta := newAnalyzer(t, func(p *mdcd.Params) { p.Theta = 5000 })
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		rMu, err := aMu.Evaluate(10000 * frac)
		if err != nil {
			t.Fatal(err)
		}
		rTheta, err := aTheta.Evaluate(5000 * frac)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rMu.Y-rTheta.Y) > 5e-3 {
			t.Errorf("scaling similarity broken at phi/theta=%.1f: %.4f vs %.4f",
				frac, rMu.Y, rTheta.Y)
		}
	}
}

func TestSweepGrid(t *testing.T) {
	g := SweepGrid(1000, 4)
	want := []float64{0, 250, 500, 750, 1000}
	if len(g) != len(want) {
		t.Fatalf("grid = %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid = %v, want %v", g, want)
		}
	}
	if g := SweepGrid(10, 0); len(g) != 2 {
		t.Errorf("SweepGrid with n<1 = %v, want 2 points", g)
	}
}

// For a non-round θ, θ·n/n rounds one ulp above θ; the grid must still end
// exactly at θ so the analyzer accepts its last point.
func TestSweepGridEndsExactlyAtTheta(t *testing.T) {
	const theta = 7151.010640152745
	grid := SweepGrid(theta, 19)
	if last := grid[len(grid)-1]; last != theta {
		t.Fatalf("last grid point = %v, want exactly theta = %v", last, theta)
	}
	a := newAnalyzer(t, func(p *mdcd.Params) { p.Theta = theta })
	pr, err := a.CurvePartial(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Results) != 20 || pr.Report.Failed() != 0 {
		t.Fatalf("CurvePartial returned %d points with %d failures, want 20 and 0: %v",
			len(pr.Results), pr.Report.Failed(), pr.Report.Err())
	}
}

func TestOptimalPhiEmpty(t *testing.T) {
	a := newAnalyzer(t, nil)
	if _, err := a.OptimalPhi(nil); err == nil {
		t.Error("OptimalPhi(nil) did not error")
	}
}

func TestRhoAccessor(t *testing.T) {
	a := newAnalyzer(t, nil)
	r1, r2 := a.Rho()
	if math.Abs(r1-0.98) > 0.005 || math.Abs(r2-0.95) > 0.01 {
		t.Errorf("Rho() = (%.4f, %.4f), want ≈ (0.98, 0.95)", r1, r2)
	}
}

func TestNewAnalyzerRejectsInvalidParams(t *testing.T) {
	p := mdcd.DefaultParams()
	p.Lambda = -5
	if _, err := NewAnalyzer(p); err == nil {
		t.Error("NewAnalyzer accepted invalid params")
	}
}
