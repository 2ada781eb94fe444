package core

import (
	"context"
	"math"
	"testing"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/parametric"
)

// outOfDomainParams returns a parameter set that passes mdcd validation
// but lies outside the parametric layer's validated domain, so an auto
// analyzer must serve it numerically.
func outOfDomainParams(t *testing.T) mdcd.Params {
	t.Helper()
	p := mdcd.DefaultParams()
	p.MuNew = 0.5
	if err := p.Validate(); err != nil {
		t.Fatalf("out-of-domain fixture must stay mdcd-valid: %v", err)
	}
	if err := parametric.CheckDomain(p); err == nil {
		t.Fatal("fixture is inside the parametric domain; pick a harder one")
	}
	return p
}

// TestParametricEvaluateMatchesNumeric pins the analyzer-level equivalence
// contract on the paper grid: the parametric fast path and the numeric
// engine agree on the performability index and every translation
// intermediate at 1e-9 relative.
func TestParametricEvaluateMatchesNumeric(t *testing.T) {
	p := mdcd.DefaultParams()
	numeric, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Parametric() {
		t.Fatal("auto mode did not activate the parametric layer at the paper params")
	}
	agree := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
	}
	grid := SweepGrid(p.Theta, 50)
	// The numeric reference is the curve engine's shared-propagation
	// path: at the paper's q·θ ≈ 2.4e7 it is the most accurate numeric
	// route (the per-point auto path rounds through ~25 expm squarings,
	// which alone cost more than the 1e-9 budget at the grid's far end).
	refs, err := numeric.Curve(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range grid {
		rp, err := par.Evaluate(phi)
		if err != nil {
			t.Fatalf("parametric Evaluate(%g): %v", phi, err)
		}
		rn := refs[i]
		for _, c := range []struct {
			name string
			a, b float64
		}{
			{"Y", rp.Y, rn.Y},
			{"Y^S1", rp.YS1, rn.YS1},
			{"Y^S2", rp.YS2, rn.YS2},
			{"E[W_phi]", rp.EWPhi, rn.EWPhi},
			{"Gamma", rp.Gamma, rn.Gamma},
			{"P(S1)", rp.PS1, rn.PS1},
		} {
			if !agree(c.a, c.b) {
				t.Errorf("phi=%g %s: parametric %.15g vs numeric %.15g", phi, c.name, c.a, c.b)
			}
		}
	}
}

// TestParametricZeroSolvePasses is the performance contract's observable:
// once an in-domain parametric analyzer is built, point evaluation and
// whole-curve sweeps run on closed forms alone — zero CTMC solver passes.
func TestParametricZeroSolvePasses(t *testing.T) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Parametric() {
		t.Fatal("parametric layer inactive")
	}
	grid := SweepGrid(p.Theta, 50)
	ctx, scope := obs.WithScope(context.Background())
	for _, phi := range grid {
		if _, err := a.EvaluateContext(ctx, phi); err != nil {
			t.Fatalf("Evaluate(%g): %v", phi, err)
		}
	}
	if _, err := a.curveBatch(ctx, grid, true, 1); err != nil {
		t.Fatal(err)
	}
	if d := scope.Counter(obs.CtrSolvePasses); d != 0 {
		t.Errorf("in-domain parametric evaluation performed %d solver passes, want 0", d)
	}
}

// TestParametricCurveCounters pins the manifest evidence: a sweep on an
// in-domain auto analyzer records one parametric hit per point and no
// solver passes on the run's scope — the counters a gsueval run manifest
// embeds.
func TestParametricCurveCounters(t *testing.T) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid(p.Theta, 20)
	ctx, scope := obs.WithScope(context.Background())
	pr, err := a.CurvePartial(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Report.Succeeded(); got != len(grid) {
		t.Fatalf("sweep succeeded on %d/%d points", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricHits); got != int64(len(grid)) {
		t.Errorf("parametric.hits = %d, want %d", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricFallbacks); got != 0 {
		t.Errorf("parametric.fallbacks = %d, want 0", got)
	}
	if got := scope.Counter(obs.CtrSolvePasses); got != 0 {
		t.Errorf("ctmc.solve_passes = %d, want 0", got)
	}
}

// TestParametricOutOfDomainFallsBack proves the fallback side of the
// contract: an auto analyzer on out-of-domain parameters serves every
// query through the numeric engine, bit-identically to a parametric-off
// analyzer, while counting one parametric fallback per point.
func TestParametricOutOfDomainFallsBack(t *testing.T) {
	p := outOfDomainParams(t)
	numeric, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatalf("auto mode must degrade to numerics out of domain, got %v", err)
	}
	if auto.Parametric() {
		t.Fatal("parametric layer active outside its validated domain")
	}
	grid := SweepGrid(p.Theta, 20)
	for _, phi := range grid {
		ra, err := auto.Evaluate(phi)
		if err != nil {
			t.Fatalf("auto Evaluate(%g): %v", phi, err)
		}
		rn, err := numeric.Evaluate(phi)
		if err != nil {
			t.Fatalf("numeric Evaluate(%g): %v", phi, err)
		}
		if ra != rn {
			t.Errorf("phi=%g: fallback result differs from the numeric engine: %+v vs %+v", phi, ra, rn)
		}
	}
	ctx, scope := obs.WithScope(context.Background())
	if _, err := auto.CurvePartial(ctx, grid); err != nil {
		t.Fatal(err)
	}
	if got := scope.Counter(obs.CtrParametricFallbacks); got != int64(len(grid)) {
		t.Errorf("parametric.fallbacks = %d, want %d", got, len(grid))
	}
	if got := scope.Counter(obs.CtrParametricHits); got != 0 {
		t.Errorf("parametric.hits = %d, want 0", got)
	}
}

// TestParametricModeErrors pins the mode contract: auto degrades to the
// numeric engine outside the closed-form domain instead of failing, and
// an unknown mode is refused by both constructors.
func TestParametricModeErrors(t *testing.T) {
	a, err := NewAnalyzerWithOptions(outOfDomainParams(t), Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatalf("auto outside the domain: %v", err)
	}
	if a.Parametric() {
		t.Error("closed form active outside its validated domain")
	}
	paper, err := NewAnalyzerWithOptions(mdcd.DefaultParams(), Options{Parametric: ParametricMode(42)})
	if err == nil {
		t.Fatal("unknown parametric mode accepted")
	}
	if paper, err = NewAnalyzer(mdcd.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	sm := ScenarioModels{Params: paper.params, Gd: paper.gd, NdNew: paper.ndNew, NdOld: paper.ndOld, Rhos: paper.rhos}
	if _, err := NewScenarioAnalyzer(sm, Options{Parametric: ParametricMode(42)}); err == nil {
		t.Fatal("unknown parametric mode accepted by the scenario constructor")
	}
}

// benchGrid cycles the point benchmarks over distinct φ values, so both
// engines are measured over the whole duration range.
func benchGrid(theta float64) []float64 {
	return SweepGrid(theta, 512)
}

// The closed-form point query allocates nothing on an untraced context
// (docs/PARAMETRIC.md): the measure set is iterated, not captured in
// closures, so no GdMeasures value escapes to the heap.
func TestEvaluateParametricAllocatesNothing(t *testing.T) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Parametric() {
		t.Fatal("parametric layer inactive")
	}
	ctx := context.Background()
	grid := benchGrid(p.Theta)
	i := 0
	allocs := testing.AllocsPerRun(len(grid), func() {
		if _, err := a.EvaluateContext(ctx, grid[i%len(grid)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("EvaluateContext under ParametricAuto: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkEvaluateParametric(b *testing.B) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzerWithOptions(p, Options{Parametric: ParametricAuto})
	if err != nil {
		b.Fatal(err)
	}
	if !a.Parametric() {
		b.Fatal("parametric layer inactive")
	}
	grid := benchGrid(p.Theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Evaluate(grid[i%len(grid)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateNumeric(b *testing.B) {
	p := mdcd.DefaultParams()
	a, err := NewAnalyzer(p)
	if err != nil {
		b.Fatal(err)
	}
	grid := benchGrid(p.Theta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Evaluate(grid[i%len(grid)]); err != nil {
			b.Fatal(err)
		}
	}
}
