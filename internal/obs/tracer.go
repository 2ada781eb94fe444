package obs

import (
	"context"
	"sync"
	"time"
)

// Well-known counter names shared across the solver layers, so sinks and
// dashboards see one vocabulary regardless of which layer emitted a count.
const (
	// CtrSolvePasses counts CTMC transient/accumulated solver passes
	// (uniformization sweeps, dense matrix exponentials).
	CtrSolvePasses = "ctmc.solve_passes"
	// CtrCacheHits / CtrCacheMisses named the traffic of a per-analyzer
	// solve memo the point path no longer has. The program no longer
	// emits them; they stay declared so readers of older traces and BENCH
	// reports compile against one vocabulary.
	CtrCacheHits   = "ctmc.cache.hits"
	CtrCacheMisses = "ctmc.cache.misses"
	// CtrFallbackPoints counts curve-engine grid points that fell back to
	// point-wise evaluation after their segment solve failed.
	CtrFallbackPoints = "core.fallback_points"
	// CtrParametricHits / CtrParametricFallbacks count point evaluations
	// served by the closed-form parametric layer versus routed to the
	// numeric engine while a parametric mode was requested (out-of-domain
	// parameters, a declined query, an unstable expansion, a non-finite
	// intermediate). Points evaluated with the layer off count under
	// neither, so hits + fallbacks accounts for every point of a
	// parametric-mode run.
	CtrParametricHits      = "parametric.hits"
	CtrParametricFallbacks = "parametric.fallbacks"
	// CtrRetries is never emitted: RunBatch invokes each item once. It
	// stays declared because the perfbench module reads it.
	CtrRetries = "robust.retries"
	// CtrAttempts counts every batch-item invocation; CtrPanics counts
	// the recovered item panics. RunBatch emits both once per batch
	// (CtrPanics only when nonzero).
	CtrAttempts = "robust.attempts"
	CtrPanics   = "robust.panics"
	// CtrErrorsPrefix prefixes the per-class failed-item counters:
	// robust.errors.<class> for each robust error class a batch recorded.
	CtrErrorsPrefix = "robust.errors."
	// CtrModelCheckFindings is the labelled family of static
	// model-verification findings: one Labeled sample per check that ran,
	// keyed check=<model>/<check>, zero for a clean check so the dump
	// records coverage.
	CtrModelCheckFindings = "modelcheck.findings"
	// CtrTemplateInstances counts constituent models generated from
	// scenario templates; CtrTemplateStates accumulates their tangible
	// state counts, so a run manifest shows the structural size of the
	// scenario it solved.
	CtrTemplateInstances = "template.instances"
	CtrTemplateStates    = "template.states"

	// Serving-path counters (internal/serve, cmd/gsuserve). They share
	// the dotted-vocabulary convention so the daemon's /metrics endpoint
	// exposes them as gsu_serve_*_total next to the solver families.
	//
	// CtrServeRequests counts admitted API requests (shed requests are
	// counted under CtrServeShed instead).
	CtrServeRequests = "serve.requests"
	// CtrServeCoalesced counts requests that joined another request's
	// in-flight solve instead of starting their own (singleflight
	// followers; the leader is not counted).
	CtrServeCoalesced = "serve.coalesced"
	// CtrServeShed counts requests rejected 429 by the admission queue.
	CtrServeShed = "serve.shed"
	// CtrServeDegraded counts requests answered with a partial
	// ("degraded": true) result instead of a full one.
	CtrServeDegraded = "serve.degraded"
	// CtrServePanics counts handler panics recovered by the server's
	// recovery middleware.
	CtrServePanics = "serve.panics"
	// CtrServeErrors counts admitted requests that ended in a non-2xx
	// status other than shedding.
	CtrServeErrors = "serve.errors"
	// CtrServeCacheHits / CtrServeCacheMisses / CtrServeCacheEvictions /
	// CtrServeCacheExpired count the process-wide sharded serving cache's
	// traffic (analyzer reuse and whole-response reuse).
	CtrServeCacheHits      = "serve.cache.hits"
	CtrServeCacheMisses    = "serve.cache.misses"
	CtrServeCacheEvictions = "serve.cache.evictions"
	CtrServeCacheExpired   = "serve.cache.expired"
	// CtrServeTracesSampled / CtrServeTracesDropped count the per-request
	// trace documents retained in versus dropped from the /debug/traces
	// ring by the sampling decision (inbound trace header and 5xx always
	// retain; everything else is subject to the configured probability).
	CtrServeTracesSampled = "serve.traces.sampled"
	CtrServeTracesDropped = "serve.traces.dropped"
)

// Attr is one key/value annotation on a span. Values are restricted to
// the JSON-friendly kinds the setters accept (int64, float64, string).
type Attr struct {
	Key   string
	Value any
}

// Event is a timestamped point annotation within a span (a parametric
// fallback, a steady-state detection).
type Event struct {
	Name string `json:"name"`
	// AtNanos is the event time as an offset from the tracer start.
	AtNanos int64 `json:"at_ns"`
}

// Span is one timed node of the trace tree. Spans are created by
// StartSpan and finished by End; all methods are nil-receiver-safe, so
// untraced code paths can call them unconditionally. A span is owned by
// the goroutine that started it: annotate and End it there.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64 // 0 = root
	name   string
	start  time.Duration // offset from tracer start
	dur    time.Duration // set by End
	attrs  []Attr
	events []Event
	ended  bool
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetFloat annotates the span with a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// Event records a timestamped point annotation within the span.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{Name: name, AtNanos: int64(s.tracer.since())})
}

// End closes the span and hands it to the tracer, folding its duration
// into the per-name histogram. End is idempotent; annotations after End
// are lost.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = s.tracer.since() - s.start
	s.tracer.finish(s)
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Tracer collects the spans, counters and duration histograms of one run.
// It is safe for concurrent use: parallel batch workers feed one tracer.
// A nil *Tracer is a valid no-op for every method.
type Tracer struct {
	start time.Time
	// parent, when set (NewRequestTracer), receives this tracer's
	// aggregates live — counters, stage statistics, histogram
	// observations — while the span objects themselves stay local, so a
	// per-request tracer yields a self-contained trace document and the
	// process tracer's /metrics totals still update as work happens, not
	// when the request ends.
	parent *Tracer

	mu       sync.Mutex
	nextID   uint64
	spans    []*Span // finished spans, in End order
	counters map[string]int64
	stats    map[string]StageStats // per-name aggregates of finished spans
	hists    map[string]*Histogram
}

// NewTracer returns an empty collector.
func NewTracer() *Tracer {
	return &Tracer{
		start:    time.Now(),
		counters: make(map[string]int64),
		stats:    make(map[string]StageStats),
		hists:    make(map[string]*Histogram),
	}
}

// NewRequestTracer returns an empty collector parented to parent: every
// counter increment, finished span and histogram observation recorded
// here also folds into parent (and its ancestors) as an aggregate, while
// the span objects remain local to the child. This is the serving
// layer's per-request collector — the request gets its own span tree for
// the /debug/traces ring, and the process tracer keeps live totals. A
// nil parent is equivalent to NewTracer.
func NewRequestTracer(parent *Tracer) *Tracer {
	t := NewTracer()
	t.parent = parent
	return t
}

// since returns the monotonic offset from the tracer start.
func (t *Tracer) since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// newSpan allocates a started span under the given parent (nil = root).
func (t *Tracer) newSpan(name string, parent *Span) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	sp := &Span{tracer: t, id: id, name: name, start: t.since()}
	if parent != nil {
		sp.parent = parent.id
	}
	return sp
}

// finish records a completed span and propagates its aggregate (name,
// duration) to the parent chain.
func (t *Tracer) finish(s *Span) {
	ns := s.dur.Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	h := t.hists[s.name]
	if h == nil {
		h = &Histogram{}
		t.hists[s.name] = h
	}
	h.observe(ns)
	st := t.stats[s.name]
	st.Count++
	st.Nanos += ns
	t.stats[s.name] = st
	t.mu.Unlock()
	if t.parent != nil {
		t.parent.observeStage(s.name, ns)
	}
}

// observeStage folds one finished-span aggregate into the tracer's stage
// statistics and histogram without recording a span object — the form in
// which child-tracer spans reach their ancestors.
func (t *Tracer) observeStage(name string, ns int64) {
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{}
		t.hists[name] = h
	}
	h.observe(ns)
	st := t.stats[name]
	st.Count++
	st.Nanos += ns
	t.stats[name] = st
	t.mu.Unlock()
	if t.parent != nil {
		t.parent.observeStage(name, ns)
	}
}

// Count adds delta to the named counter, and to every ancestor's.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
	if t.parent != nil {
		t.parent.Count(name, delta)
	}
}

// Observe folds one duration into the named histogram without creating a
// span (for cheap repeated operations not worth a trace node each). Like
// spans and counters, the observation propagates to every ancestor.
func (t *Tracer) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{}
		t.hists[name] = h
	}
	h.observe(d.Nanoseconds())
	t.mu.Unlock()
	if t.parent != nil {
		t.parent.Observe(name, d)
	}
}

// Counter returns the current value of one counter.
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Counters returns a copy of every counter.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// StageStats is the compact aggregate of one span name: how many spans
// finished under it and their total wall clock. This is the form every
// metrics writer (text, JSON, Prometheus) reports stages in.
type StageStats struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// Stages aggregates the finished spans by name — the tracer's own plus,
// for a tracer with request-tracer children, every span aggregate those
// children propagated up.
func (t *Tracer) Stages() map[string]StageStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]StageStats, len(t.stats))
	for k, v := range t.stats {
		out[k] = v
	}
	return out
}

// Histograms returns a snapshot of every duration histogram.
func (t *Tracer) Histograms() map[string]HistSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]HistSnapshot, len(t.hists))
	for k, h := range t.hists {
		out[k] = h.snapshot()
	}
	return out
}

// SpanCount returns the number of finished spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Scope is a nested counter scope: counts routed through a context reach
// every scope enclosing it, so a layer can read an exact per-region delta
// (the curve engine's solver-pass budget) while outer layers and the
// tracer still see the totals. Safe for concurrent use.
type Scope struct {
	parent *Scope
	mu     sync.Mutex
	counts map[string]int64
}

// add accumulates into this scope and every ancestor.
func (s *Scope) add(name string, delta int64) {
	for c := s; c != nil; c = c.parent {
		c.mu.Lock()
		if c.counts == nil {
			c.counts = make(map[string]int64)
		}
		c.counts[name] += delta
		c.mu.Unlock()
	}
}

// Counter returns the scope's accumulated value of one counter.
func (s *Scope) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// Counters returns a copy of the scope's counters.
func (s *Scope) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// ctxKey indexes the single obs context value.
type ctxKey struct{}

// node is the traced position a context carries: the collector, the
// current parent span, and the innermost counter scope.
type node struct {
	tracer *Tracer
	span   *Span
	scope  *Scope
}

// WithTracer installs a tracer in the context, preserving any scope
// already present. A nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	n := nodeFrom(ctx)
	nn := &node{tracer: tr}
	if n != nil {
		nn.scope = n.scope
	}
	return context.WithValue(ctx, ctxKey{}, nn)
}

// TracerFrom returns the tracer carried by the context, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if n := nodeFrom(ctx); n != nil {
		return n.tracer
	}
	return nil
}

// nodeFrom fetches the obs node without allocating.
func nodeFrom(ctx context.Context) *node {
	n, _ := ctx.Value(ctxKey{}).(*node)
	return n
}

// WithScope derives a context whose counts also accumulate into a fresh
// Scope nested inside any scope already present. The returned scope is
// never nil, so callers can read deltas unconditionally even when the
// context carries no tracer.
func WithScope(ctx context.Context) (context.Context, *Scope) {
	n := nodeFrom(ctx)
	sc := &Scope{}
	nn := &node{scope: sc}
	if n != nil {
		nn.tracer, nn.span, sc.parent = n.tracer, n.span, n.scope
	}
	return context.WithValue(ctx, ctxKey{}, nn), sc
}

// StartSpan begins a child span of the context's current span (or a root
// span) and returns a context carrying it as the new parent. When the
// context has no tracer, it returns ctx unchanged and a nil span at zero
// allocations — the no-op fast path of every instrumented layer.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	n := nodeFrom(ctx)
	if n == nil || n.tracer == nil {
		return ctx, nil
	}
	sp := n.tracer.newSpan(name, n.span)
	return context.WithValue(ctx, ctxKey{}, &node{tracer: n.tracer, span: sp, scope: n.scope}), sp
}

// CurrentSpan returns the context's current span, or nil.
func CurrentSpan(ctx context.Context) *Span {
	if n := nodeFrom(ctx); n != nil {
		return n.span
	}
	return nil
}

// AddEvent records a point annotation on the context's current span.
func AddEvent(ctx context.Context, name string) {
	CurrentSpan(ctx).Event(name)
}

// Count adds delta to the named counter of the context's tracer and of
// every enclosing Scope. With neither installed it is a single context
// lookup and no allocation.
func Count(ctx context.Context, name string, delta int64) {
	n := nodeFrom(ctx)
	if n == nil {
		return
	}
	if n.scope != nil {
		n.scope.add(name, delta)
	}
	n.tracer.Count(name, delta)
}

// ObserveDuration folds one duration into the context tracer's named
// histogram; a no-op without a tracer.
func ObserveDuration(ctx context.Context, name string, d time.Duration) {
	TracerFrom(ctx).Observe(name, d)
}

// AdoptTrace transplants src's traced position — tracer, current span,
// counter scope — onto dst, which keeps dst's cancellation and values
// otherwise. This is how a coalesced flight, which must run on the
// server-lifetime context rather than any one request's, still records
// its work under the leader request's trace. When src carries no traced
// position, dst is returned unchanged.
func AdoptTrace(dst, src context.Context) context.Context {
	n := nodeFrom(src)
	if n == nil {
		return dst
	}
	return context.WithValue(dst, ctxKey{}, n)
}
