package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// RouteTimeout is the per-request solve budget (default 30s). A
	// request's timeout_ms field can tighten it, never extend it.
	RouteTimeout time.Duration
	// Workers bounds the solver worker pool each request's sweep runs on
	// (default 2 — per-request parallelism stays modest so concurrent
	// requests, not single sweeps, use the cores).
	Workers int
	// Limiter bounds admission (see LimiterConfig).
	Limiter LimiterConfig
	// AnalyzerCache bounds the built-analyzer cache (default: 8 shards,
	// 64 analyzers, 10m TTL).
	AnalyzerCache CacheConfig
	// ResponseCache bounds the whole-response cache (default: 8 shards,
	// 512 responses, 5m TTL).
	ResponseCache CacheConfig
	// Parametric selects the analyzers' closed-form fast path: "auto"
	// (the default, also chosen for ""): in-domain queries are served
	// from precomputed closed forms in microseconds, everything else
	// falls back to the numeric engine; "off": numeric engine only.
	// Any other value resolves to "auto" — the daemon's safe default —
	// so a misconfigured deployment degrades to correct behavior
	// instead of refusing to start.
	Parametric string
	// Tracer is the process tracer backing /metrics; nil runs untraced
	// (counters become no-ops, /metrics serves an empty exposition, and
	// no per-request tracing happens — the zero-overhead path).
	Tracer *obs.Tracer
	// TraceSampleRate is the probability a successful request's trace
	// document is retained in the /debug/traces ring (0 disables
	// probabilistic sampling). Requests carrying an inbound X-Trace-Id
	// header and requests answered 5xx are always retained. Only
	// meaningful with a Tracer.
	TraceSampleRate float64
	// TraceRing bounds the /debug/traces document ring (default 64; only
	// meaningful with a Tracer).
	TraceRing int
	// Logger receives one structured access-log record per request
	// (trace_id, route, status, degraded, coalesced, …). Nil disables
	// access logging. Transport-level problems (failed response writes,
	// recovered panics) always go to the log package's standard logger.
	Logger *slog.Logger
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.RouteTimeout <= 0 {
		c.RouteTimeout = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.AnalyzerCache.Capacity == 0 {
		c.AnalyzerCache.Capacity = 64
	}
	if c.AnalyzerCache.TTL == 0 {
		c.AnalyzerCache.TTL = 10 * time.Minute
	}
	if c.ResponseCache.Capacity == 0 {
		c.ResponseCache.Capacity = 512
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 64
	}
	if c.Parametric != "off" {
		c.Parametric = "auto"
	}
	return c
}

// parametricMode maps the resolved Config.Parametric string to the
// analyzer option.
func (c Config) parametricMode() core.ParametricMode {
	if c.Parametric == "off" {
		return core.ParametricOff
	}
	return core.ParametricAuto
}

// Server is the performability-as-a-service daemon: HTTP handlers over
// the analyzer stack, composed from the package's robustness pieces
// (coalescer, sharded caches, admission limiter) plus lifecycle state
// (readiness, drain). Build with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	tracer *obs.Tracer
	logger *slog.Logger

	// base is the lifecycle context flights derive from: it carries the
	// process tracer and dies when the server shuts down, so no solve
	// outlives the drain.
	base       context.Context
	cancelBase context.CancelFunc

	analyzers *Cache[*core.Analyzer]
	scenarios *Cache[*scenarioEntry]
	responses *Cache[*apiResult]
	flights   *Coalescer[*apiResult]
	limiter   *Limiter
	// ring holds the sampled per-request trace documents behind
	// /debug/traces; nil when the server runs untraced.
	ring *traceRing
	// inflight gauges the HTTP requests currently inside the handler
	// (admitted or not), exposed on /metrics next to the limiter's
	// active/queued pair.
	inflight atomic.Int64

	draining atomic.Bool
	mux      *http.ServeMux
	hs       *http.Server
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	base = obs.WithTracer(base, cfg.Tracer)
	s := &Server{
		cfg:        cfg,
		tracer:     cfg.Tracer,
		base:       base,
		cancelBase: cancel,
		analyzers: NewCache[*core.Analyzer](cfg.AnalyzerCache,
			obs.CtrServeCacheHits, obs.CtrServeCacheMisses, obs.CtrServeCacheEvictions, obs.CtrServeCacheExpired),
		scenarios: NewCache[*scenarioEntry](cfg.AnalyzerCache,
			obs.CtrServeCacheHits, obs.CtrServeCacheMisses, obs.CtrServeCacheEvictions, obs.CtrServeCacheExpired),
		responses: NewCache[*apiResult](cfg.ResponseCache,
			obs.CtrServeCacheHits, obs.CtrServeCacheMisses, obs.CtrServeCacheEvictions, obs.CtrServeCacheExpired),
		flights: NewCoalescer[*apiResult](base),
		limiter: NewLimiter(cfg.Limiter),
		logger:  cfg.Logger,
	}
	if cfg.Tracer != nil {
		s.ring = newTraceRing(cfg.TraceRing)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("/v1/curve", s.handleCurve)
	s.mux.HandleFunc("/v1/scenario/curve", s.handleScenarioCurve)
	s.mux.HandleFunc("/v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("/v1/propagate", s.handlePropagate)
	return s
}

// Handler returns the server's root handler: per-request tracing, panic
// recovery, and structured access logging around the route mux. Usable
// directly with httptest.
//
// With a process tracer configured, every request gets a trace ID
// (adopted from an inbound X-Trace-Id header, else generated), a
// request-scoped child tracer whose aggregates stream into the process
// tracer live, and a root span named serve.http.<route> — which is what
// gives /metrics its route-labeled request-latency histograms. Without a
// tracer the request runs on the old zero-overhead untraced path.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{route: routeLabel(r.URL.Path)}
		ctx := r.Context()
		var rt *obs.Tracer
		var root *obs.Span
		if s.tracer != nil {
			info.traceID = sanitizeTraceID(r.Header.Get(TraceHeader))
			info.forced = info.traceID != ""
			if info.traceID == "" {
				info.traceID = newTraceID()
			}
			w.Header().Set(TraceHeader, info.traceID)
			rt = obs.NewRequestTracer(s.tracer)
			ctx = obs.WithTracer(ctx, rt)
			ctx, root = obs.StartSpan(ctx, "serve.http."+info.route)
			root.SetStr("trace_id", info.traceID)
		}
		ctx = context.WithValue(ctx, reqInfoKey{}, info)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Add(1)
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				obs.Count(ctx, obs.CtrServePanics, 1)
				log.Printf("serve: recovered panic on %s: %v", r.URL.Path, rec)
				s.writeError(sw, r, fmt.Errorf("%w: %v", robust.ErrPanic, rec))
			}
			s.inflight.Add(-1)
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			if rt != nil {
				s.finishTrace(rt, root, info, status)
			}
			s.logRequest(r, info, status, time.Since(start))
		}()
		s.mux.ServeHTTP(sw, r)
	})
}

// traced attaches the process tracer to a context — the bare-tracer
// variant of what the middleware does, for callers (and tests) driving
// serveAPI below the Handler middleware.
func (s *Server) traced(ctx context.Context) context.Context {
	return obs.WithTracer(ctx, s.tracer)
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine, returning the bound address. Use Shutdown
// to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	//lint:ignore golifetime the acceptor loop is bounded by http.Server — Shutdown/Close makes Serve return ErrServerClosed
	go func() {
		if serr := s.hs.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			log.Printf("serve: %v", serr)
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: readiness flips to draining (so
// load balancers stop routing here), new connections stop being
// accepted, every in-flight request — including queued admitted work —
// runs to completion, and only then does the lifecycle context die. ctx
// bounds how long the drain may take; on expiry remaining work is
// abandoned and its flights canceled.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	s.cancelBase()
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// apiResult is one computed (or cached) API response: the flight value
// shared by coalesced requests and the unit the response cache stores.
type apiResult struct {
	status   int
	body     []byte
	degraded bool
	// cacheable marks a complete, deterministic success — partial
	// (degraded) and error responses are never cached, so a request shed
	// or cut short can never poison later answers.
	cacheable bool
	// retryAfter is set on shed responses.
	retryAfter time.Duration
	// traceID identifies the trace of the flight that computed this
	// result. Coalesced waiters and response-cache hits record it as a
	// link on their own root spans, which is what attributes a thousand
	// identical requests to the one leader trace holding the solve tree.
	// Written once inside the computing flight, read-only afterwards.
	traceID string
}

// errEnvelope is the JSON error document.
type errEnvelope struct {
	Error  string `json:"error"`
	Class  string `json:"class,omitempty"`
	Status int    `json:"status"`
}

// errorResult renders a solve failure as an apiResult via the robust
// taxonomy's status mapping.
func errorResult(err error) *apiResult {
	status := robust.HTTPStatus(err)
	body, merr := json.Marshal(errEnvelope{Error: err.Error(), Class: string(robust.ErrorClass(err)), Status: status})
	if merr != nil {
		body = []byte(`{"error":"internal error","status":500}`)
		status = http.StatusInternalServerError
	}
	return &apiResult{status: status, body: body}
}

// shedResult renders a 429 with a Retry-After hint.
func shedResult(retryAfter time.Duration) *apiResult {
	body, merr := json.Marshal(errEnvelope{Error: ErrShed.Error(), Class: "shed", Status: http.StatusTooManyRequests})
	if merr != nil {
		body = []byte(`{"error":"shed","status":429}`)
	}
	return &apiResult{status: http.StatusTooManyRequests, body: body, retryAfter: retryAfter}
}

// serveAPI is the composed request path shared by every solve route:
// response cache → coalesced flight → (inside the flight) admission
// control → deadline-bounded compute. compute must return a non-nil
// apiResult and never an error — solver failures are rendered with
// errorResult so they share status mapping and coalesce like successes.
func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request, key string, budget time.Duration, compute func(ctx context.Context) *apiResult) {
	ctx := r.Context()
	info := reqInfoFrom(ctx)
	obs.Count(ctx, obs.CtrServeRequests, 1)
	if res, ok := s.responses.Get(ctx, key); ok {
		info.noteResultOrigin(res, true)
		s.writeResult(w, r, res, true)
		return
	}
	res, shared, err := s.flights.Do(ctx, key, func(fctx context.Context) (out *apiResult, _ error) {
		// The flight runs on the server-lifetime context (an impatient
		// leader hanging up must not abort the solve other waiters need),
		// but its work still belongs to the leader's trace: transplant the
		// leader's traced position onto the flight context, so the solve
		// span tree lands in the leader's request tracer — and, by
		// aggregate propagation, in the process tracer.
		fctx = obs.AdoptTrace(fctx, ctx)
		// stamp marks a fresh result with the computing request's trace ID.
		// It must run before the result is published to the response cache:
		// a concurrent cache hit reads traceID, so a published result is
		// never written again, and results recycled from the cache
		// re-check keep their original ID untouched.
		stamp := func(res *apiResult) *apiResult {
			if info != nil {
				res.traceID = info.traceID
			}
			return res
		}
		defer func() {
			// A panic inside a flight would otherwise kill the process
			// (the flight runs outside the HTTP handler's recovery).
			if rec := recover(); rec != nil {
				obs.Count(fctx, obs.CtrServePanics, 1)
				log.Printf("serve: recovered panic in flight %s: %v", r.URL.Path, rec)
				out = stamp(errorResult(fmt.Errorf("%w: %v", robust.ErrPanic, rec)))
			}
		}()
		// Re-check the cache now that this flight owns the key: a request
		// that missed the cache moments before an identical flight finished
		// would otherwise re-solve. Because the finished flight filled the
		// cache before being forgotten (below), passing this check means no
		// completed identical solve exists — together the two steps make
		// "exactly one solver run per unique request" hold even for
		// stragglers racing a finishing flight.
		if cached, ok := s.responses.Get(fctx, key); ok {
			return cached, nil
		}
		release, aerr := s.limiter.Acquire(fctx)
		if aerr != nil {
			if errors.Is(aerr, ErrShed) {
				obs.Count(fctx, obs.CtrServeShed, 1)
				return stamp(shedResult(s.limiter.RetryAfter())), nil
			}
			return stamp(errorResult(aerr)), nil
		}
		defer release()
		sctx, cancel := context.WithTimeout(fctx, budget)
		defer cancel()
		out = stamp(compute(sctx))
		if out.cacheable {
			// Fill the cache from inside the flight, so by the time the
			// flight is forgotten the answer is already cached (see the
			// re-check above).
			s.responses.Put(fctx, key, out)
		}
		return out, nil
	})
	if err != nil {
		// This caller's own wait ended (client gone or connection
		// deadline); the flight may still complete for other waiters.
		s.writeError(w, r, err)
		return
	}
	if shared {
		obs.Count(ctx, obs.CtrServeCoalesced, 1)
		if info != nil {
			info.coalesced = true
		}
	}
	info.noteResultOrigin(res, false)
	s.writeResult(w, r, res, false)
}

// budget resolves a request's solve deadline: the route timeout,
// tightened by a positive timeout_ms.
func (s *Server) budget(timeoutMS int) time.Duration {
	b := s.cfg.RouteTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < b {
			b = t
		}
	}
	return b
}

// writeResult writes one apiResult, maintaining the serving counters.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *apiResult, cached bool) {
	ctx := r.Context()
	if res.degraded {
		obs.Count(ctx, obs.CtrServeDegraded, 1)
		if info := reqInfoFrom(ctx); info != nil {
			info.degraded = true
		}
	}
	if res.status >= 400 && res.status != http.StatusTooManyRequests {
		obs.Count(ctx, obs.CtrServeErrors, 1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if cached {
		h.Set("X-Cache", "hit")
	}
	if res.retryAfter > 0 {
		secs := int(res.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		h.Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil {
		log.Printf("serve: writing %s response: %v", r.URL.Path, err)
	}
}

// writeError renders err through the taxonomy mapping.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	res := errorResult(err)
	if res.status >= http.StatusInternalServerError {
		log.Printf("serve: %s: %v", r.URL.Path, err)
	}
	s.writeResult(w, r, res, false)
}

// writeJSON marshals v as the response body with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("encoding response: %w", err))
		return
	}
	s.writeResult(w, r, &apiResult{status: status, body: body}, false)
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz reports readiness: 200 while accepting work, 503 once
// draining so load balancers route new traffic elsewhere while in-flight
// requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"ready": true})
}

// handleMetrics exposes the process tracer in the Prometheus text
// format, through the same writer as `gsueval -metrics prom`
// (obs.Tracer.WriteProm), followed by the serving-state gauges
// (in-flight requests, limiter occupancy, queue depth, trace-ring fill)
// and the process runtime/build-info families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.tracer.WriteProm(w); err != nil {
		log.Printf("serve: writing /metrics: %v", err)
		return
	}
	gauges := map[string]float64{
		"serve_inflight_requests": float64(s.inflight.Load()),
		"serve_active_solves":     float64(s.limiter.Active()),
		"serve_queue_depth":       float64(s.limiter.Queued()),
	}
	if s.ring != nil {
		stored, _ := s.ring.snapshot()
		gauges["serve_trace_ring_size"] = float64(len(stored))
	}
	if err := obs.WritePromGauges(w, gauges); err != nil {
		log.Printf("serve: writing /metrics gauges: %v", err)
		return
	}
	if err := obs.WritePromRuntime(w, obs.CurrentBuildInfo(), obs.ReadRuntimeStats()); err != nil {
		log.Printf("serve: writing /metrics runtime: %v", err)
	}
}

// debugTracesResponse is the GET /debug/traces document: the sampled
// trace ring, newest first, each entry an obs.TraceDoc exactly as
// obs.WriteTrace would emit it (same schema as `gsueval -trace`).
type debugTracesResponse struct {
	Capacity int            `json:"capacity"`
	Stored   int            `json:"stored"`
	Sampled  int64          `json:"sampled"`
	Traces   []obs.TraceDoc `json:"traces"`
}

// handleDebugTraces serves the sampled request-trace ring. With tracing
// disabled it reports an empty ring rather than erroring, so probes can
// hit the route unconditionally.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	resp := debugTracesResponse{Traces: []obs.TraceDoc{}}
	if s.ring != nil {
		resp.Traces, resp.Sampled = s.ring.snapshot()
		resp.Capacity = s.ring.capacity()
		resp.Stored = len(resp.Traces)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
