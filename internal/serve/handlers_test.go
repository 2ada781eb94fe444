package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
	"guardedop/internal/uncertainty"
)

// hit issues one in-process request through the server's full handler
// stack (recovery middleware included) and returns the recorder.
func hit(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestCurveHappyPathAndResponseCache(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	// Parametric "off" pins the numeric serving path (solves > 0); the
	// closed-form default is covered by TestCurveParametricDefault.
	s := New(Config{Tracer: tr, Parametric: "off"})
	h := s.Handler()

	rec := hit(h, http.MethodPost, "/v1/curve", `{"points":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var resp curveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Degraded || resp.PointsRequested != 9 || resp.PointsReturned != 9 || resp.Solves == 0 {
		t.Fatalf("response = %+v, want full 9-point undegraded curve with solves > 0", resp)
	}
	// Spot-check the numbers against the core analyzer directly.
	p := mdcd.DefaultParams()
	if resp.Params.Theta != p.Theta || resp.Params.Lambda != p.Lambda {
		t.Errorf("params echo = %+v, want resolved defaults", resp.Params)
	}
	a, err := core.NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4, 8} {
		want, err := a.Evaluate(resp.Results[i].Phi)
		if err != nil {
			t.Fatal(err)
		}
		// The sweep's shared-propagation segments and the pointwise path
		// agree to solver tolerance, not bit-exactly.
		if got := resp.Results[i].Y; math.Abs(got-want.Y) > 1e-8*math.Abs(want.Y) {
			t.Errorf("Y(phi=%g) = %g over HTTP, %g direct", resp.Results[i].Phi, got, want.Y)
		}
	}

	// The identical query replays from the response cache, bit-for-bit.
	rec2 := hit(h, http.MethodPost, "/v1/curve", `{"points":8}`)
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat query: status %d, X-Cache %q, want cached 200", rec2.Code, rec2.Header().Get("X-Cache"))
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Error("cached response differs from the original")
	}
	// Exactly one sweep ran in total.
	if got := tr.Stages()["core.curve"].Count; got != 1 {
		t.Errorf("core.curve ran %d times, want 1", got)
	}
}

// A numeric curve's solves field is exactly the solver-pass count of the
// same sweep run directly on a core analyzer under a caller-opened
// counter scope.
func TestCurveSolvesMatchDirectSweep(t *testing.T) {
	t.Parallel()
	const points = 8
	s := New(Config{Parametric: "off", Workers: 2})
	rec := hit(s.Handler(), http.MethodPost, "/v1/curve", fmt.Sprintf(`{"points":%d}`, points))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp curveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	p := mdcd.DefaultParams()
	a, err := core.NewAnalyzerWithOptions(p, core.Options{Parametric: core.ParametricOff})
	if err != nil {
		t.Fatal(err)
	}
	ctx, scope := obs.WithScope(context.Background())
	if _, err := a.CurvePartialWorkers(ctx, core.SweepGrid(p.Theta, points), 2); err != nil {
		t.Fatal(err)
	}
	want := scope.Counter(obs.CtrSolvePasses)
	if want == 0 || resp.Solves != want {
		t.Errorf("solves = %d, want the direct sweep's %d solver passes", resp.Solves, want)
	}
}

// TestCurveParametricDefault pins the daemon's default serving path: the
// zero-value Config resolves to parametric "auto", so an in-domain curve
// is served from closed forms — zero CTMC solver passes — and still
// matches the numeric engine at the equivalence bound.
func TestCurveParametricDefault(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr})
	rec := hit(s.Handler(), http.MethodPost, "/v1/curve", `{"points":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp curveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.PointsReturned != 9 {
		t.Fatalf("response = %+v, want full undegraded curve", resp)
	}
	if resp.Solves != 0 {
		t.Errorf("solves = %d, want 0 (closed-form serving)", resp.Solves)
	}
	if got := tr.Counter(obs.CtrParametricHits); got != 9 {
		t.Errorf("parametric.hits = %d, want 9", got)
	}
	a, err := core.NewAnalyzer(mdcd.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4, 8} {
		want, err := a.Evaluate(resp.Results[i].Phi)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Results[i].Y; math.Abs(got-want.Y) > 1e-8*math.Abs(want.Y) {
			t.Errorf("Y(phi=%g) = %g parametric over HTTP, %g numeric direct", resp.Results[i].Phi, got, want.Y)
		}
	}
}

func TestCurveGETQuery(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	rec := hit(s.Handler(), http.MethodGet, "/v1/curve?points=4&lambda=0.03", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp curveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Params.Lambda != 0.03 || resp.PointsReturned != 5 {
		t.Errorf("GET query: lambda = %g points = %d, want 0.03 / 5", resp.Params.Lambda, resp.PointsReturned)
	}
}

func TestOptimizeHappyPath(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	rec := hit(s.Handler(), http.MethodPost, "/v1/optimize", `{"grid_points":10}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp optimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The server defaults to the parametric fast path; the bit-exact
	// reference must run the same engine.
	a, err := core.NewAnalyzerWithOptions(mdcd.DefaultParams(), core.Options{Parametric: core.ParametricAuto})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.OptimizePhiContext(context.Background(), core.OptimizeOptions{GridPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Best.Phi != want.Phi || resp.Best.Y != want.Y {
		t.Errorf("optimize over HTTP = (φ %g, Y %g), direct = (φ %g, Y %g)",
			resp.Best.Phi, resp.Best.Y, want.Phi, want.Y)
	}
}

func TestPropagateHappyPath(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	rec := hit(s.Handler(), http.MethodPost, "/v1/propagate", `{"samples":6,"seed":3,"grid_points":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp propagateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	p := mdcd.DefaultParams()
	want, err := uncertainty.Propagate(p, uncertainty.Gamma{Shape: 2, Rate: 2 / p.MuNew},
		uncertainty.PropagateOptions{Samples: 6, Seed: 3, GridPoints: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RobustPhi != want.RobustPhi || resp.PlugInPhi != want.PlugInPhi || resp.SamplesUsed != want.SamplesUsed {
		t.Errorf("propagate over HTTP = %+v, direct robust φ %g plug-in φ %g used %d",
			resp, want.RobustPhi, want.PlugInPhi, want.SamplesUsed)
	}
	if resp.Degraded != (want.SamplesUsed < want.SamplesRequested) {
		t.Errorf("degraded = %v with %d/%d samples", resp.Degraded, resp.SamplesUsed, resp.SamplesRequested)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	h := s.Handler()
	cases := []struct {
		name, method, target, body string
	}{
		{"unknown field", http.MethodPost, "/v1/curve", `{"bogus":1}`},
		{"malformed JSON", http.MethodPost, "/v1/curve", `{`},
		{"points too large", http.MethodPost, "/v1/curve", fmt.Sprintf(`{"points":%d}`, maxCurvePoints+1)},
		{"grid_points too small", http.MethodPost, "/v1/optimize", `{"grid_points":1}`},
		{"samples too small", http.MethodPost, "/v1/propagate", `{"samples":1}`},
		{"half posterior", http.MethodPost, "/v1/propagate", `{"shape":2}`},
		{"invalid theta", http.MethodPost, "/v1/curve", `{"params":{"theta":-1}}`},
		{"bad query number", http.MethodGet, "/v1/curve?points=abc", ""},
		{"unsupported method", http.MethodPut, "/v1/curve", `{}`},
	}
	for _, tc := range cases {
		rec := hit(h, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// TestServeAPITaxonomyStatus drives fabricated compute outcomes through
// the full serveAPI pipeline and asserts the robust-taxonomy statuses
// reach the wire — the HTTP half of the no-default-500 contract.
func TestServeAPITaxonomyStatus(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr})
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"canceled", fmt.Errorf("sweep: %w", robust.ErrCanceled), http.StatusGatewayTimeout},
		{"ill-conditioned", fmt.Errorf("solve: %w", robust.ErrIllConditioned), http.StatusUnprocessableEntity},
		{"invariant", fmt.Errorf("check: %w", robust.ErrInvariant), http.StatusUnprocessableEntity},
		{"not-converged", fmt.Errorf("uniformization: %w", robust.ErrNotConverged), http.StatusInternalServerError},
	}
	for i, tc := range cases {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/test", nil)
		req = req.WithContext(s.traced(req.Context()))
		key := fmt.Sprintf("taxonomy-%d", i)
		s.serveAPI(rec, req, key, time.Second, func(context.Context) *apiResult {
			return errorResult(tc.err)
		})
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.want)
		}
		var env errEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: decoding envelope: %v", tc.name, err)
		}
		if env.Class != tc.name {
			t.Errorf("%s: class = %q", tc.name, env.Class)
		}
	}
	if got := tr.Counters()[obs.CtrServeErrors]; got != int64(len(cases)) {
		t.Errorf("serve.errors = %d, want %d", got, len(cases))
	}
	// Error responses are never cached: the same key recomputes.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/test", nil)
	req = req.WithContext(s.traced(req.Context()))
	ran := false
	s.serveAPI(rec, req, "taxonomy-0", time.Second, func(context.Context) *apiResult {
		ran = true
		return jsonResult(map[string]bool{"ok": true}, false, true)
	})
	if !ran || rec.Code != http.StatusOK {
		t.Errorf("recompute after error: ran=%v status=%d, want fresh 200", ran, rec.Code)
	}
}

// TestPanicRecovery asserts both recovery layers: a panic in a plain
// handler and a panic inside a coalesced flight each become a 500 with
// the panic class, counted, without killing the process.
func TestPanicRecovery(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	rec := hit(s.Handler(), http.MethodGet, "/boom", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("handler panic: status = %d, want 500", rec.Code)
	}
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Class != "panic" {
		t.Errorf("handler panic class = %q", env.Class)
	}

	// Flight panic: recovered inside the flight, shared as a 500.
	rec2 := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/test", nil)
	req = req.WithContext(s.traced(req.Context()))
	s.serveAPI(rec2, req, "flight-panic", time.Second, func(context.Context) *apiResult {
		panic("flight exploded")
	})
	if rec2.Code != http.StatusInternalServerError {
		t.Fatalf("flight panic: status = %d, want 500", rec2.Code)
	}
	if got := tr.Counters()[obs.CtrServePanics]; got != 2 {
		t.Errorf("serve.panics = %d, want 2", got)
	}
}

func TestHealthzReadyzAndDrainFlag(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	h := s.Handler()
	if rec := hit(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", rec.Code)
	}
	if rec := hit(h, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rec := hit(h, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Errorf("draining readyz body = %s", rec.Body.String())
	}
	// Liveness is unaffected by drain.
	if rec := hit(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr})
	h := s.Handler()
	if rec := hit(h, http.MethodPost, "/v1/curve", `{"points":4}`); rec.Code != http.StatusOK {
		t.Fatalf("curve priming request failed: %d", rec.Code)
	}
	rec := hit(h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"gsu_serve_requests_total",
		"gsu_serve_cache_misses_total",
		`gsu_stage_total{stage="core.curve"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCurveDeadlinePartialHTTP is the HTTP half of the completed-prefix
// contract: a request whose budget expires mid-sweep gets 200 with
// degraded:true and the prefix of points solved before the deadline,
// matching a full solve point-for-point.
func TestCurveDeadlinePartialHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-calibrated test")
	}
	t.Parallel()
	const points = 1600 // 51 segments of 32: plenty of room for a mid-sweep deadline
	// Calibrate: how long does the full sweep take on this machine?
	full := New(Config{Workers: 1})
	t0 := time.Now()
	recFull := hit(full.Handler(), http.MethodPost, "/v1/curve", fmt.Sprintf(`{"points":%d}`, points))
	elapsed := time.Since(t0)
	if recFull.Code != http.StatusOK {
		t.Fatalf("calibration sweep failed: %d %s", recFull.Code, recFull.Body.String())
	}
	var fullResp curveResponse
	if err := json.Unmarshal(recFull.Body.Bytes(), &fullResp); err != nil {
		t.Fatal(err)
	}

	// Fresh server per attempt so no cache can short-circuit the deadline.
	for _, frac := range []float64{0.4, 0.2, 0.6, 0.1, 0.8} {
		ms := int(float64(elapsed.Milliseconds()) * frac)
		if ms < 1 {
			ms = 1
		}
		tr := obs.NewTracer()
		s := New(Config{Workers: 1, Tracer: tr})
		rec := hit(s.Handler(), http.MethodPost, "/v1/curve",
			fmt.Sprintf(`{"points":%d,"timeout_ms":%d}`, points, ms))
		switch rec.Code {
		case http.StatusGatewayTimeout:
			continue // deadline hit before any segment finished: tighter than intended
		case http.StatusOK:
		default:
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
		}
		var resp curveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded {
			continue // sweep finished inside the budget: deadline too loose
		}
		if resp.PointsReturned == 0 || resp.PointsReturned >= resp.PointsRequested {
			t.Fatalf("degraded response returned %d/%d points", resp.PointsReturned, resp.PointsRequested)
		}
		if got := tr.Counters()[obs.CtrServeDegraded]; got != 1 {
			t.Errorf("serve.degraded = %d, want 1", got)
		}
		// The surviving points must match the full solve bit-for-bit: a
		// partial answer is a prefix, never an approximation.
		fullByPhi := make(map[float64]pointJSON, len(fullResp.Results))
		for _, pt := range fullResp.Results {
			fullByPhi[pt.Phi] = pt
		}
		for _, pt := range resp.Results {
			want, ok := fullByPhi[pt.Phi]
			if !ok {
				t.Fatalf("degraded point φ=%g not on the full grid", pt.Phi)
			}
			if pt.Y != want.Y {
				t.Fatalf("degraded Y(φ=%g) = %g, full solve = %g", pt.Phi, pt.Y, want.Y)
			}
		}
		return // success
	}
	t.Skip("no attempt landed mid-sweep on this machine; core-layer test covers the contract deterministically")
}
