package benchreg

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/serve"
	"guardedop/internal/template"
)

// Suite returns the pinned benchmark suite: the repo's hot paths, each
// reporting the deterministic work counters that gate regressions. The
// eq-pinned rule values are this repo's current measured behaviour —
// changing them is a deliberate act reviewed with the code change that
// caused it, exactly like updating a golden test.
func Suite() []Benchmark {
	return []Benchmark{
		gridBench("grid50.numeric", core.ParametricOff),
		gridBench("grid50.parametric", core.ParametricAuto),
		evaluateBench("evaluate.numeric", core.ParametricOff),
		evaluateBench("evaluate.parametric", core.ParametricAuto),
		templateBench("template.n3", 3, 5, 276),
		templateBench("template.n8", 8, 0, 1796),
		serveCoalescedBench(),
		serveDistinctBench(),
	}
}

// gridBench sweeps the paper-scale 50-point φ grid through the curve
// engine (segment solves + per-point fallback), the same workload as
// BenchmarkCurveEngine, under one explicit engine mode.
func gridBench(name string, mode core.ParametricMode) Benchmark {
	rules := map[string]Rule{
		"curve.points":             {Op: "eq", Value: 50},
		obs.CtrFallbackPoints:      {Op: "eq", Value: 0},
		obs.CtrParametricFallbacks: {Op: "eq", Value: 0},
	}
	if mode == core.ParametricOff {
		rules[obs.CtrParametricHits] = Rule{Op: "eq", Value: 0}
		// 98 is the engine's measured budget on the paper grid — the
		// repo's canonical solver-pass pin. Counters are deterministic, so
		// any other value is a behavioural change in the curve engine, not
		// noise.
		rules[obs.CtrSolvePasses] = Rule{Op: "eq", Value: 98}
	} else {
		rules[obs.CtrParametricHits] = Rule{Op: "eq", Value: 50}
		rules[obs.CtrSolvePasses] = Rule{Op: "eq", Value: 0}
	}
	return Benchmark{
		Name:  name,
		Rules: rules,
		Run: func(ctx context.Context, tr *obs.Tracer) (map[string]int64, error) {
			a, err := core.NewAnalyzerWithOptions(mdcd.DefaultParams(), core.Options{Parametric: mode})
			if err != nil {
				return nil, err
			}
			grid := core.SweepGrid(10000, 49)
			pr, err := a.CurvePartialWorkers(ctx, grid, 1)
			if err != nil {
				return nil, err
			}
			if got := pr.Report.Succeeded(); got != len(grid) {
				return nil, fmt.Errorf("%d/%d grid points failed", len(grid)-got, len(grid))
			}
			c := tr.Counters()
			return map[string]int64{
				"curve.points":             int64(len(grid)),
				obs.CtrSolvePasses:         c[obs.CtrSolvePasses],
				obs.CtrParametricHits:      c[obs.CtrParametricHits],
				obs.CtrParametricFallbacks: c[obs.CtrParametricFallbacks],
				obs.CtrFallbackPoints:      c[obs.CtrFallbackPoints],
			}, nil
		},
	}
}

// evaluateBench measures the point-wise Evaluate path over 40 distinct φ
// — the code the curve engine falls back to and the optimizer leans on.
func evaluateBench(name string, mode core.ParametricMode) Benchmark {
	rules := map[string]Rule{
		"evaluate.points":          {Op: "eq", Value: 40},
		obs.CtrParametricFallbacks: {Op: "eq", Value: 0},
	}
	if mode == core.ParametricOff {
		// Three full-horizon solves per point (the RMGd
		// transient+accumulated pass, the two RMNd transients), with no
		// pass for zero-length solves: the RMGd solve at φ = 0 and the two
		// RMNd solves at φ = θ.
		rules[obs.CtrSolvePasses] = Rule{Op: "eq", Value: 117}
		rules[obs.CtrParametricHits] = Rule{Op: "eq", Value: 0}
	} else {
		rules[obs.CtrSolvePasses] = Rule{Op: "eq", Value: 0}
		rules[obs.CtrParametricHits] = Rule{Op: "eq", Value: 40}
	}
	return Benchmark{
		Name:  name,
		Rules: rules,
		Run: func(ctx context.Context, tr *obs.Tracer) (map[string]int64, error) {
			a, err := core.NewAnalyzerWithOptions(mdcd.DefaultParams(), core.Options{Parametric: mode})
			if err != nil {
				return nil, err
			}
			for _, phi := range core.SweepGrid(10000, 39) {
				if _, err := a.EvaluateContext(ctx, phi); err != nil {
					return nil, err
				}
			}
			c := tr.Counters()
			return map[string]int64{
				"evaluate.points":          40,
				obs.CtrSolvePasses:         c[obs.CtrSolvePasses],
				obs.CtrParametricHits:      c[obs.CtrParametricHits],
				obs.CtrParametricFallbacks: c[obs.CtrParametricFallbacks],
			}, nil
		},
	}
}

// benchSpec is the N-node scenario the template benchmarks build: the
// paper baseline widened with plain nodes, the same family the
// examples/scenarios specs describe.
func benchSpec(nodes int) *template.Spec {
	spec := template.PaperSpec()
	spec.Name = fmt.Sprintf("bench-%dnode", nodes)
	for i := len(spec.Nodes); i < nodes; i++ {
		spec.Nodes = append(spec.Nodes, template.NodeSpec{Name: fmt.Sprintf("P%d", i+1)})
	}
	spec.Limits.MaxStates = 1 << 15
	return spec
}

// templateBench generates the N-node scenario model family and — when
// points > 0 — sweeps a small curve over the scenario analyzer. The
// solve stage is what the sparse-solver roadmap item must beat: at N=8
// the generated chains (≈1.8k tangible states) already price the dense
// expm path out of a benchmark budget, so that entry is build-only and
// pins the structural size counters instead; the day a sparse backend
// lands, giving it a points > 0 solve stage is the intended upgrade.
func templateBench(name string, nodes, points, states int) Benchmark {
	return Benchmark{
		Name: name,
		Rules: map[string]Rule{
			obs.CtrTemplateInstances: {Op: "eq", Value: 1},
			// The family's total tangible states is a pure function of the
			// spec: a drift means the generator's structure changed.
			obs.CtrTemplateStates: {Op: "eq", Value: int64(states)},
		},
		Run: func(ctx context.Context, tr *obs.Tracer) (map[string]int64, error) {
			spec := benchSpec(nodes)
			inst, err := template.Build(ctx, spec)
			if err != nil {
				return nil, err
			}
			counters := func() map[string]int64 {
				c := tr.Counters()
				return map[string]int64{
					obs.CtrTemplateInstances: c[obs.CtrTemplateInstances],
					obs.CtrTemplateStates:    c[obs.CtrTemplateStates],
					obs.CtrSolvePasses:       c[obs.CtrSolvePasses],
					"curve.points":           int64(points),
				}
			}
			if points <= 0 {
				return counters(), nil
			}
			a, err := core.NewScenarioAnalyzer(core.ScenarioModels{
				Params: inst.Params,
				Gd:     inst.Gd,
				NdNew:  inst.NdNew,
				NdOld:  inst.NdOld,
				Rhos:   inst.Rhos,
			}, core.Options{})
			if err != nil {
				return nil, err
			}
			grid := core.SweepGrid(spec.Theta, points-1)
			pr, err := a.CurvePartialWorkers(ctx, grid, 1)
			if err != nil {
				return nil, err
			}
			if got := pr.Report.Succeeded(); got != len(grid) {
				return nil, fmt.Errorf("%d/%d scenario grid points failed", len(grid)-got, len(grid))
			}
			return counters(), nil
		},
	}
}

// discardWriter is the minimal http.ResponseWriter the serve benchmarks
// drive the handler with (httptest would register CLI flags).
type discardWriter struct {
	h      http.Header
	status int
}

func newDiscardWriter() *discardWriter { return &discardWriter{h: make(http.Header)} }

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

// serveHit drives one in-process request through the handler stack.
func serveHit(ctx context.Context, h http.Handler, body string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/curve", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	w := newDiscardWriter()
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, nil
}

// serveCoalescedBench replays the thousand-identical-queries shape at
// benchmark scale: 256 concurrent identical curve requests must collapse
// onto one solve, with every non-leader absorbed by the flight or the
// response cache. The coalesced-vs-cache-hit split is scheduling
// dependent, so only their deterministic sum is reported.
func serveCoalescedBench() Benchmark {
	const n = 256
	return Benchmark{
		Name: "serve.coalesced",
		Rules: map[string]Rule{
			obs.CtrServeRequests: {Op: "eq", Value: n},
			"serve.absorbed":     {Op: "eq", Value: n - 1},
			"core.curve.count":   {Op: "eq", Value: 1},
			obs.CtrServeShed:     {Op: "eq", Value: 0},
			obs.CtrServeErrors:   {Op: "eq", Value: 0},
		},
		Run: func(ctx context.Context, tr *obs.Tracer) (map[string]int64, error) {
			s := serve.New(serve.Config{Tracer: tr, Workers: 1})
			h := s.Handler()
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					status, err := serveHit(ctx, h, `{"points":20}`)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("status %d", status)
					}
					errs <- err
				}()
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					return nil, err
				}
			}
			c := tr.Counters()
			return map[string]int64{
				obs.CtrServeRequests: c[obs.CtrServeRequests],
				"serve.absorbed":     c[obs.CtrServeCoalesced] + c[obs.CtrServeCacheHits],
				"core.curve.count":   tr.Stages()["core.curve"].Count,
				obs.CtrSolvePasses:   c[obs.CtrSolvePasses],
				obs.CtrServeShed:     c[obs.CtrServeShed],
				obs.CtrServeErrors:   c[obs.CtrServeErrors],
			}, nil
		},
	}
}

// serveDistinctBench issues distinct queries sequentially: every request
// misses the response cache, the analyzer builds once and is reused, and
// each distinct grid solves fresh — the worst-case (uncacheable) serving
// cost.
func serveDistinctBench() Benchmark {
	const n = 8
	return Benchmark{
		Name: "serve.distinct",
		Rules: map[string]Rule{
			obs.CtrServeRequests:  {Op: "eq", Value: n},
			obs.CtrServeCoalesced: {Op: "eq", Value: 0},
			obs.CtrServeErrors:    {Op: "eq", Value: 0},
			"core.curve.count":    {Op: "eq", Value: n},
		},
		Run: func(ctx context.Context, tr *obs.Tracer) (map[string]int64, error) {
			s := serve.New(serve.Config{Tracer: tr, Workers: 1})
			h := s.Handler()
			for i := 0; i < n; i++ {
				status, err := serveHit(ctx, h, fmt.Sprintf(`{"points":%d}`, 3+i))
				if err != nil {
					return nil, err
				}
				if status != http.StatusOK {
					return nil, fmt.Errorf("request %d: status %d", i, status)
				}
			}
			c := tr.Counters()
			return map[string]int64{
				obs.CtrServeRequests:    c[obs.CtrServeRequests],
				obs.CtrServeCoalesced:   c[obs.CtrServeCoalesced],
				obs.CtrServeCacheHits:   c[obs.CtrServeCacheHits],
				obs.CtrServeCacheMisses: c[obs.CtrServeCacheMisses],
				obs.CtrSolvePasses:      c[obs.CtrSolvePasses],
				"core.curve.count":      tr.Stages()["core.curve"].Count,
				obs.CtrServeErrors:      c[obs.CtrServeErrors],
			}, nil
		},
	}
}
