package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"guardedop/internal/obs"
	"guardedop/internal/template"
)

// hitTraced is hit with an explicit inbound X-Trace-Id header, which
// forces sampling for that one request.
func hitTraced(h http.Handler, method, target, body, traceID string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(TraceHeader, traceID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// debugTraces fetches and decodes GET /debug/traces.
func debugTraces(t *testing.T, h http.Handler) debugTracesResponse {
	t.Helper()
	rec := hit(h, http.MethodGet, "/debug/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp debugTracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	return resp
}

// rootSpan returns a trace document's root request span.
func rootSpan(t *testing.T, doc obs.TraceDoc) obs.SpanRecord {
	t.Helper()
	for _, sp := range doc.Spans {
		if sp.Parent == 0 && strings.HasPrefix(sp.Name, "serve.http.") {
			return sp
		}
	}
	t.Fatalf("trace %s has no serve.http.* root span (spans: %d)",
		doc.Manifest.TraceID, len(doc.Spans))
	return obs.SpanRecord{}
}

// hasSpan reports whether a trace document contains a span by name.
func hasSpan(doc obs.TraceDoc, name string) bool {
	for _, sp := range doc.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestThousandTracedCoalescedRequests is the tracing acceptance test: a
// thousand concurrent identical curve queries, all sampled, must yield
// exactly one leader trace containing the solve span tree and 999
// waiter/cache-hit traces that carry a link.trace_id attribute pointing
// at the leader — so the single core.curve solve is attributable to one
// specific request and every absorbed request records who answered it.
func TestThousandTracedCoalescedRequests(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr, TraceSampleRate: 1, TraceRing: 1024})
	h := s.Handler()
	const n = 1000
	body := `{"points":20}`
	codes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := hit(h, http.MethodPost, "/v1/curve", body)
			codes[i] = rec.Code
			ids[i] = rec.Header().Get(TraceHeader)
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if len(ids[i]) != 32 {
			t.Fatalf("request %d: trace ID %q, want generated 32-hex ID", i, ids[i])
		}
		if seen[ids[i]] {
			t.Fatalf("trace ID %s issued twice", ids[i])
		}
		seen[ids[i]] = true
	}

	ctrs := tr.Counters()
	if ctrs[obs.CtrServeTracesSampled] != n {
		t.Errorf("%s = %d, want %d", obs.CtrServeTracesSampled, ctrs[obs.CtrServeTracesSampled], n)
	}
	if ctrs[obs.CtrServeTracesDropped] != 0 {
		t.Errorf("%s = %d, want 0 at sample rate 1", obs.CtrServeTracesDropped, ctrs[obs.CtrServeTracesDropped])
	}
	// Per-request tracers must still aggregate into the process tracer.
	if got := tr.Stages()["core.curve"].Count; got != 1 {
		t.Errorf("process tracer saw %d core.curve runs, want 1", got)
	}
	if got := tr.Stages()["serve.http.curve"].Count; got != n {
		t.Errorf("process tracer saw %d serve.http.curve spans, want %d", got, n)
	}

	resp := debugTraces(t, h)
	if resp.Stored != n || resp.Sampled != n {
		t.Fatalf("ring stored %d sampled %d, want %d/%d at sample rate 1",
			resp.Stored, resp.Sampled, n, n)
	}
	// Exactly one document owns the solve tree.
	var leaders []obs.TraceDoc
	for _, doc := range resp.Traces {
		if hasSpan(doc, "core.curve") {
			leaders = append(leaders, doc)
		}
	}
	if len(leaders) != 1 {
		t.Fatalf("%d traces contain the core.curve span, want exactly 1 leader", len(leaders))
	}
	leaderID := leaders[0].Manifest.TraceID
	if !seen[leaderID] {
		t.Fatalf("leader trace ID %s was never issued to a client", leaderID)
	}
	if attrs := rootSpan(t, leaders[0]).Attrs; attrs["link.trace_id"] != nil {
		t.Errorf("leader root span links to %v, want no link (it ran the solve)", attrs["link.trace_id"])
	}
	// Every other request links to the leader's trace.
	linked := 0
	for _, doc := range resp.Traces {
		if doc.Manifest.TraceID == leaderID {
			continue
		}
		root := rootSpan(t, doc)
		link, _ := root.Attrs["link.trace_id"].(string)
		if link != leaderID {
			t.Fatalf("trace %s links to %q, want leader %s", doc.Manifest.TraceID, link, leaderID)
		}
		linked++
	}
	if linked != n-1 {
		t.Fatalf("%d linked waiter traces, want %d", linked, n-1)
	}
}

// TestScenarioTraceDocTemplateCounters covers trace-doc content through
// the templated-scenario path: the first request's manifest carries the
// template build counters, a repeated request is answered from cache
// with zero new solver passes, and a same-spec regrid reuses the built
// scenario (spec-hash cache hit) without a second template instantiation.
func TestScenarioTraceDocTemplateCounters(t *testing.T) {
	t.Parallel()
	s := New(Config{Tracer: obs.NewTracer(), TraceSampleRate: 0, TraceRing: 8})
	h := s.Handler()
	body := specBody(t, template.PaperSpec(), `"points":4`)

	for i, rc := range []struct{ id, body string }{
		{"scen-build", body},
		{"scen-repeat", body},
		{"scen-regrid", specBody(t, template.PaperSpec(), `"points":5`)},
	} {
		if rec := hitTraced(h, http.MethodPost, "/v1/scenario/curve", rc.body, rc.id); rec.Code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d, body %s", i, rc.id, rec.Code, rec.Body.String())
		}
	}
	docs := make(map[string]obs.TraceDoc)
	resp := debugTraces(t, h)
	for _, doc := range resp.Traces {
		docs[doc.Manifest.TraceID] = doc
	}
	if len(docs) != 3 {
		t.Fatalf("ring holds %d forced traces, want 3 (sample rate 0)", len(docs))
	}

	build := docs["scen-build"]
	if build.Manifest.Route != "scenario_curve" {
		t.Errorf("build trace route = %q, want scenario_curve", build.Manifest.Route)
	}
	bc := build.Manifest.Counters
	if bc[obs.CtrTemplateInstances] != 1 || bc[obs.CtrTemplateStates] == 0 {
		t.Errorf("build trace counters: %s=%d %s=%d, want 1 instance with generated states",
			obs.CtrTemplateInstances, bc[obs.CtrTemplateInstances],
			obs.CtrTemplateStates, bc[obs.CtrTemplateStates])
	}
	// The analysis budget must be attributed to this request, whichever
	// engine served it (numeric passes or closed-form parametric hits).
	if bc[obs.CtrSolvePasses]+bc[obs.CtrParametricHits] == 0 {
		t.Errorf("build trace recorded no solver work; the budget is unattributable")
	}

	// Identical repeat: the response cache answers, so the request's own
	// trace records zero solves and links to the flight that computed it.
	rep := docs["scen-repeat"]
	rc := rep.Manifest.Counters
	if rc[obs.CtrSolvePasses]+rc[obs.CtrParametricHits] != 0 || rc[obs.CtrTemplateInstances] != 0 {
		t.Errorf("repeat trace counters: solves=%d hits=%d instances=%d, want all 0 (cache hit)",
			rc[obs.CtrSolvePasses], rc[obs.CtrParametricHits], rc[obs.CtrTemplateInstances])
	}
	root := rootSpan(t, rep)
	if link, _ := root.Attrs["link.trace_id"].(string); link != "scen-build" {
		t.Errorf("repeat trace links to %q, want scen-build", link)
	}
	if root.Attrs["cached"] == nil {
		t.Errorf("repeat trace root span not marked cached: %v", root.Attrs)
	}

	// Same spec hash, new grid: the scenario cache supplies the built
	// model (no new template instantiation) but the new φ points solve.
	gc := docs["scen-regrid"].Manifest.Counters
	if gc[obs.CtrTemplateInstances] != 0 {
		t.Errorf("regrid trace instantiated %d templates, want 0 (spec-hash cache hit)",
			gc[obs.CtrTemplateInstances])
	}
	if gc[obs.CtrSolvePasses]+gc[obs.CtrParametricHits] == 0 {
		t.Errorf("regrid trace recorded no solver work, want fresh solves for the new grid")
	}
}

// TestInboundTraceHeaderForcedAndSanitized pins the trace-ID contract:
// a well-formed inbound ID is adopted, echoed, and forces sampling even
// at rate zero; a hostile one is discarded and replaced by a generated
// ID so log-unsafe bytes never reach downstream records.
func TestInboundTraceHeaderForcedAndSanitized(t *testing.T) {
	t.Parallel()
	s := New(Config{Tracer: obs.NewTracer(), TraceSampleRate: 0, TraceRing: 4})
	h := s.Handler()

	rec := hitTraced(h, http.MethodPost, "/v1/curve", `{"points":3}`, "my-Debug-ID-7")
	if got := rec.Header().Get(TraceHeader); got != "my-Debug-ID-7" {
		t.Fatalf("echoed trace ID = %q, want the inbound value", got)
	}
	resp := debugTraces(t, h)
	if resp.Stored != 1 || resp.Traces[0].Manifest.TraceID != "my-Debug-ID-7" {
		t.Fatalf("forced trace not sampled at rate 0: stored=%d", resp.Stored)
	}

	rec = hitTraced(h, http.MethodPost, "/v1/curve", `{"points":3}`, "evil\nid{}")
	if got := rec.Header().Get(TraceHeader); got == "evil\nid{}" || len(got) != 32 {
		t.Fatalf("hostile inbound ID not replaced: echoed %q", got)
	}
	// A discarded ID is not a caller request, so sampling stays off.
	if resp = debugTraces(t, h); resp.Stored != 1 {
		t.Fatalf("ring stored %d docs, want still 1 (invalid header must not force sampling)", resp.Stored)
	}
}

// TestErrorTracesAlwaysSampled: server errors bypass the probability so
// the traces most worth reading are always retained. The panic route
// doubles as the recovery-middleware status check.
func TestErrorTracesAlwaysSampled(t *testing.T) {
	t.Parallel()
	tr := obs.NewTracer()
	s := New(Config{Tracer: tr, TraceSampleRate: 0, TraceRing: 4})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.Handler()

	if rec := hit(h, http.MethodGet, "/boom", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking route returned %d, want 500", rec.Code)
	}
	resp := debugTraces(t, h)
	if resp.Stored != 1 {
		t.Fatalf("error trace not sampled: stored = %d", resp.Stored)
	}
	root := rootSpan(t, resp.Traces[0])
	if st, _ := root.Attrs["status"].(float64); int(st) != http.StatusInternalServerError {
		t.Errorf("root span status attr = %v, want 500", root.Attrs["status"])
	}
	if tr.Counters()[obs.CtrServeTracesSampled] != 1 {
		t.Errorf("sampled counter = %d, want 1", tr.Counters()[obs.CtrServeTracesSampled])
	}
}

// TestDebugTracesWithoutTracer: the endpoint reports an empty ring
// rather than erroring when tracing is disabled, so probes can hit it
// unconditionally.
func TestDebugTracesWithoutTracer(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	resp := debugTraces(t, s.Handler())
	if resp.Capacity != 0 || resp.Stored != 0 || resp.Sampled != 0 || len(resp.Traces) != 0 {
		t.Fatalf("untraced /debug/traces = %+v, want empty ring", resp)
	}
}

// TestTraceRingEviction pins the bounded-memory contract: the ring
// overwrites oldest-first and snapshots newest-first.
func TestTraceRingEviction(t *testing.T) {
	t.Parallel()
	r := newTraceRing(4)
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4", "t5"} {
		r.push(obs.TraceDoc{Manifest: obs.Manifest{TraceID: id}})
	}
	docs, total := r.snapshot()
	if total != 6 || len(docs) != 4 {
		t.Fatalf("total=%d stored=%d, want 6 pushed / 4 retained", total, len(docs))
	}
	for i, want := range []string{"t5", "t4", "t3", "t2"} {
		if docs[i].Manifest.TraceID != want {
			t.Fatalf("docs[%d] = %s, want %s (newest-first)", i, docs[i].Manifest.TraceID, want)
		}
	}
}

func TestSanitizeTraceID(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ in, want string }{
		{"abc-123-DEF", "abc-123-DEF"},
		{"", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
		{"has space", ""},
		{"quote\"brk", ""},
		{"new\nline", ""},
		{"curly{}", ""},
	} {
		if got := sanitizeTraceID(tc.in); got != tc.want {
			t.Errorf("sanitizeTraceID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRouteLabelBounded(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ path, want string }{
		{"/v1/curve", "curve"},
		{"/v1/scenario/curve", "scenario_curve"},
		{"/metrics", "metrics"},
		{"/debug/traces", "debug_traces"},
		{"/v1/curve/../../etc/passwd", "other"},
		{"/anything", "other"},
	} {
		if got := routeLabel(tc.path); got != tc.want {
			t.Errorf("routeLabel(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestStructuredAccessLog pins the slog access-record vocabulary that
// docs/OBSERVABILITY.md documents: one JSON line per request carrying
// trace_id/route/method/status/dur_ms/degraded/coalesced/cached, with
// link_trace_id on cache-served requests.
func TestStructuredAccessLog(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s := New(Config{Tracer: obs.NewTracer(), Logger: logger})
	h := s.Handler()

	hitTraced(h, http.MethodPost, "/v1/curve", `{"points":3}`, "log-test-1")
	hitTraced(h, http.MethodPost, "/v1/curve", `{"points":3}`, "log-test-2")

	mu.Lock()
	defer mu.Unlock()
	var lines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2", len(lines))
	}
	first, second := lines[0], lines[1]
	if first["trace_id"] != "log-test-1" || first["route"] != "curve" ||
		first["method"] != http.MethodPost || first["status"] != float64(http.StatusOK) {
		t.Errorf("first record = %v, want trace log-test-1 on curve with 200", first)
	}
	for _, key := range []string{"dur_ms", "degraded", "coalesced", "cached"} {
		if _, ok := first[key]; !ok {
			t.Errorf("access record missing %q: %v", key, first)
		}
	}
	if first["degraded"] != false || first["cached"] != false {
		t.Errorf("fresh solve logged degraded=%v cached=%v, want false/false",
			first["degraded"], first["cached"])
	}
	if second["cached"] != true || second["link_trace_id"] != "log-test-1" {
		t.Errorf("repeat record = %v, want cached=true linking to log-test-1", second)
	}
}

// lockedWriter serializes concurrent handler writes into one buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestMetricsServeGauges: /metrics must expose the serving-layer gauges,
// the route-labeled latency histogram (via the serve.http.<route> span),
// and the build/runtime families.
func TestMetricsServeGauges(t *testing.T) {
	t.Parallel()
	s := New(Config{Tracer: obs.NewTracer(), TraceSampleRate: 1, TraceRing: 4})
	h := s.Handler()
	hit(h, http.MethodPost, "/v1/curve", `{"points":3}`)
	rec := hit(h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"gsu_serve_inflight_requests",
		"gsu_serve_active_solves",
		"gsu_serve_queue_depth",
		"gsu_serve_trace_ring_size",
		`gsu_span_duration_seconds_bucket{span="serve.http.curve"`,
		"gsu_build_info{",
		"gsu_goroutines",
		"gsu_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFlightTraceStampBeforePublish races response-cache hits against a
// finishing flight. The flight must stamp its trace ID on a fresh result
// before publishing it to the cache: the hits read that ID (every one
// must link to the leader), so a stamp written after publication is a
// data race the race detector reports.
func TestFlightTraceStampBeforePublish(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	const key = "stamp-race"
	computed := make(chan struct{})
	compute := func(context.Context) *apiResult {
		close(computed)
		return jsonResult(map[string]bool{"ok": true}, false, true)
	}
	serve := func(traceID string) (*httptest.ResponseRecorder, *reqInfo) {
		info := &reqInfo{route: "test", traceID: traceID}
		req := httptest.NewRequest(http.MethodGet, "/test", nil)
		req = req.WithContext(context.WithValue(req.Context(), reqInfoKey{}, info))
		rec := httptest.NewRecorder()
		s.serveAPI(rec, req, key, time.Second, compute)
		return rec, info
	}

	const hitters = 8
	var wg sync.WaitGroup
	wg.Add(hitters)
	for i := 0; i < hitters; i++ {
		go func(i int) {
			defer wg.Done()
			<-computed
			// Wait for the flight to publish without joining it: a hit
			// that never synchronized with the flight's return is the
			// access a post-publication stamp races with.
			for {
				if _, ok := s.responses.Get(context.Background(), key); ok {
					break
				}
				runtime.Gosched()
			}
			rec, info := serve(fmt.Sprintf("hitter-%d", i))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
				t.Errorf("hitter %d: status %d, X-Cache %q, want a 200 cache hit", i, rec.Code, rec.Header().Get("X-Cache"))
			}
			if info.link != "leader" {
				t.Errorf("hitter %d: link = %q, want the leader's trace ID", i, info.link)
			}
		}(i)
	}
	rec, info := serve("leader")
	wg.Wait()
	if rec.Code != http.StatusOK || info.link != "" || info.cached {
		t.Errorf("leader: status %d, link %q, cached %v, want a fresh 200 with no link", rec.Code, info.link, info.cached)
	}
}
