package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"guardedop/internal/obs"
)

// call runs fn inside a span named after the public function it wraps.
// Without a tracer on ctx the span is a no-op, so untraced runs pay
// nothing for it.
func call(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	return fn(ctx)
}

// withAllocs runs fn; on the traced pass it adds the bytes allocated
// while fn ran, in KB, to the named harness count. Ops run one at a
// time in the traced pass, so the process-wide count is the op's own.
func withAllocs(ctx context.Context, name string, fn func() error) error {
	if tallyFrom(ctx) == nil {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	count(ctx, name, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	return err
}

// tally holds the harness's own counts and sums of a traced pass.
type tally map[string]float64

// tallyKey carries, on the context of a traced op or replay, the tally
// its counts go to.
type tallyKey struct{}

// tallyFrom returns the tally of the traced op or replay running on ctx,
// or nil when ctx is untraced.
func tallyFrom(ctx context.Context) tally {
	t, _ := ctx.Value(tallyKey{}).(tally)
	return t
}

// count adds v to the named count of the traced op or replay running on
// ctx; untraced it does nothing.
func count(ctx context.Context, name string, v float64) {
	if t := tallyFrom(ctx); t != nil {
		t[name] += v
	}
}

// opSpans is one op's span tree as written to the trace file. Every span
// of one op carries the op's id.
type opSpans struct {
	Op    int              `json:"op"`
	Kind  string           `json:"kind"`
	Spans []obs.SpanRecord `json:"spans"`
}

// spanAgg sums spans by name: count, inclusive time and self time (the
// span's duration minus the part of it its children cover).
type spanAgg struct {
	count map[string]int
	incl  map[string]time.Duration
	self  map[string]time.Duration
}

func newSpanAgg() *spanAgg {
	return &spanAgg{count: map[string]int{}, incl: map[string]time.Duration{}, self: map[string]time.Duration{}}
}

// add folds one op's spans into the aggregate.
func (a *spanAgg) add(spans []obs.SpanRecord) {
	children := map[uint64][]obs.SpanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		a.count[s.Name]++
		a.incl[s.Name] += time.Duration(s.DurNanos)
		a.self[s.Name] += time.Duration(s.DurNanos - covered(s, children[s.ID]))
	}
}

// covered returns how many nanoseconds of the parent's interval the
// union of its children's intervals covers. Children of a parallel batch
// overlap, so they are merged rather than summed.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	lo, hi := parent.StartNanos, parent.StartNanos+parent.DurNanos
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNanos, lo), min(k.StartNanos+k.DurNanos, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// mean returns the mean inclusive time of the named span in ms, or 0
// when none ran.
func (a *spanAgg) mean(name string) float64 {
	return ratio(ms(a.incl[name]), float64(a.count[name]))
}

// recorder collects a traced run: one tracer per op, so the spans of an
// op share an op id, parented to a run tracer that accumulates the
// program's counters across ops. The timed ops and the replays (the
// layer-by-layer reconstruction of what an op's opaque constructor does,
// run outside the op's timing) are kept apart throughout — spans, the
// program's counters and the harness's counts — so the work a replay
// repeats never enters the ops' figures.
type recorder struct {
	run       *obs.Tracer // program counters of the timed ops
	replayRun *obs.Tracer // program counters of the replays
	ops       *spanAgg
	replay    *spanAgg
	kinds     map[string]*kindAgg
	kept      []opSpans
	opCount   int
	opCounts  tally
	replayed  tally
}

// kindAgg is the per-op-kind view used to show where op time goes.
type kindAgg struct {
	ops    int
	opTime time.Duration
	spans  *spanAgg
}

func newRecorder() *recorder {
	return &recorder{
		run:       obs.NewTracer(),
		replayRun: obs.NewTracer(),
		ops:       newSpanAgg(),
		replay:    newSpanAgg(),
		kinds:     map[string]*kindAgg{},
		opCounts:  tally{},
		replayed:  tally{},
	}
}

// op runs fn as op number id of the given kind under a fresh op tracer and
// folds its spans in. It returns fn's wall time.
func (r *recorder) op(id int, kind string, fn func(context.Context) error) (time.Duration, error) {
	tr := obs.NewRequestTracer(r.run)
	ctx := context.WithValue(obs.WithTracer(context.Background(), tr), tallyKey{}, r.opCounts)
	ctx, root := obs.StartSpan(ctx, "bench.op")
	root.SetInt("op", int64(id))
	root.SetStr("kind", kind)
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	root.End()
	doc := obs.Snapshot(tr, obs.Manifest{})
	r.ops.add(doc.Spans)
	k := r.kinds[kind]
	if k == nil {
		k = &kindAgg{spans: newSpanAgg()}
		r.kinds[kind] = k
	}
	k.ops++
	k.opTime += d
	k.spans.add(doc.Spans)
	r.opCount++
	r.kept = append(r.kept, opSpans{Op: id, Kind: kind, Spans: doc.Spans})
	return d, err
}

// replayOp runs fn, the layer replay of op id, under its own tracer
// carrying the same op id; its spans, counters and counts land in the
// replay's aggregates.
func (r *recorder) replayOp(id int, fn func(context.Context) error) error {
	tr := obs.NewRequestTracer(r.replayRun)
	ctx := context.WithValue(obs.WithTracer(context.Background(), tr), tallyKey{}, r.replayed)
	ctx, root := obs.StartSpan(ctx, "bench.replay")
	root.SetInt("op", int64(id))
	err := fn(ctx)
	root.End()
	doc := obs.Snapshot(tr, obs.Manifest{})
	r.replay.add(doc.Spans)
	r.kept = append(r.kept, opSpans{Op: id, Kind: "replay", Spans: doc.Spans})
	return err
}

// counter reads one of the program's counters summed over the timed ops.
func (r *recorder) counter(name string) float64 { return float64(r.run.Counter(name)) }

// write dumps every kept span to dir/traces/<workload>-seed<seed>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if dir == "" {
		return "", nil
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(r.kept)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// printShares prints, per op kind, the span names with the largest self
// time as a share of the ops' summed self time. Workers of a parallel
// curve overlap in wall time, so summed self time is the ops' busy time,
// not their wall time.
func (r *recorder) printShares(cfg config) {
	kinds := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		k := r.kinds[kind]
		var busy time.Duration
		names := make([]string, 0, len(k.spans.self))
		for n, d := range k.spans.self {
			names = append(names, n)
			busy += d
		}
		sort.Slice(names, func(i, j int) bool { return k.spans.self[names[i]] > k.spans.self[names[j]] })
		fmt.Fprintf(cfg.log, "busy time by span, %s ops (%d ops, %.1f ms/op wall, %.1f ms/op busy):",
			kind, k.ops, ms(k.opTime)/float64(k.ops), ms(busy)/float64(k.ops))
		for _, n := range names[:min(5, len(names))] {
			fmt.Fprintf(cfg.log, " %s %.1f%%", n, 100*float64(k.spans.self[n])/float64(busy))
		}
		fmt.Fprintln(cfg.log)
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerNames lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; a metric of a layer the
// workload does not reach reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"mdcd.build_ms", "ms"},
	{"statespace.states", "count"},
	{"modelcheck.check_ms", "ms"},
	{"ctmc.steady_ms", "ms"},
	{"parametric.build_ms", "ms"},
	{"parametric.declined", "count"},
	{"parametric.hits", "count"},
	{"parametric.fallbacks", "count"},
	{"parametric.hit_ratio", "1"},
	{"replay.parametric.hits", "count"},
	{"replay.parametric.fallbacks", "count"},
	{"core.build_ms", "ms"},
	{"core.build_alloc_kb", "KB"},
	{"core.curve_ms", "ms"},
	{"core.optimize_ms", "ms"},
	{"core.fallback_points", "count"},
	{"core.curve_points", "count"},
	{"mdcd.series_ms", "ms"},
	{"ctmc.solve_passes", "count"},
	{"ctmc.passes_per_point", "1"},
	{"ctmc.expm_ms", "ms"},
	{"ctmc.vanloan_ms", "ms"},
	{"ctmc.uniformize_ms", "ms"},
	{"ctmc.cache.hit_ratio", "1"},
	{"template.build_ms", "ms"},
	{"template.states", "count"},
	{"template.build_alloc_kb", "KB"},
	{"uncertainty.draws_per_s", "1/s"},
	{"uncertainty.survival_ratio", "1"},
	{"robust.retries", "count"},
	{"serve.requests", "count"},
	{"serve.curve_p50_ms", "ms"},
	{"serve.optimize_p50_ms", "ms"},
	{"serve.propagate_p50_ms", "ms"},
	{"serve.response_cache.hit_ratio", "1"},
	{"serve.cache.hit_ratio", "1"},
	{"serve.cache.evictions", "count"},
	{"serve.absorbed_ratio", "1"},
	{"serve.shed_ratio", "1"},
	{"serve.degraded_ratio", "1"},
	{"loadgen.lag_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "1"},
}

// layerMetrics turns values keyed by metric name into the reported set:
// every per-layer metric, 0 where the workload did not produce it.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for _, m := range perLayerNames {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// batchLayers computes the per-layer metrics a batch workload's
// recorder supports. Times are means per call (per parameter set for
// construction) or per op; counters are run totals. Counters count the
// timed ops only; what only the replay sees (state counts, declined
// closed-form builds, the replayed draws' engine choices) is reported
// under its own names or as per-set means.
func (r *recorder) batchLayers() map[string]float64 {
	ops, rp := r.ops, r.replay
	oc, rc := r.opCounts, r.replayed
	v := map[string]float64{}
	sets := float64(rp.count["bench.replay"])
	if n := rp.count["mdcd.BuildRMGd"]; n > 0 {
		v["mdcd.build_ms"] = ms(rp.incl["mdcd.BuildRMGd"]+rp.incl["mdcd.BuildRMGp"]+rp.incl["mdcd.BuildRMNd"]) / float64(n)
	}
	v["statespace.states"] = ratio(rc["states"], sets)
	v["modelcheck.check_ms"] = ratio(ms(rp.incl["modelcheck.CheckSpace"]), sets)
	v["ctmc.steady_ms"] = rp.mean("mdcd.RMGp.Measures")
	v["parametric.build_ms"] = rp.mean("parametric.NewSystem")
	v["parametric.declined"] = rc["parametric.declined"]
	hits, falls := r.counter(obs.CtrParametricHits), r.counter(obs.CtrParametricFallbacks)
	v["parametric.hits"], v["parametric.fallbacks"] = hits, falls
	rHits, rFalls := float64(r.replayRun.Counter(obs.CtrParametricHits)), float64(r.replayRun.Counter(obs.CtrParametricFallbacks))
	v["replay.parametric.hits"], v["replay.parametric.fallbacks"] = rHits, rFalls
	// The hit ratio is the ops' own where their context reaches the
	// engine. Propagation draws evaluate out of its reach, so on
	// propagate it is that of the replayed draws.
	if hits+falls > 0 {
		v["parametric.hit_ratio"] = ratio(hits, hits+falls)
	} else {
		v["parametric.hit_ratio"] = ratio(rHits, rHits+rFalls)
	}
	// The constructor is timed where the op calls it (study, scenario)
	// or where the replay calls it for an op that hides it (propagate).
	builds := ops.count["core.NewAnalyzerWithOptions"] + ops.count["core.NewScenarioAnalyzer"] + rp.count["core.NewAnalyzerWithOptions"]
	buildTime := ops.incl["core.NewAnalyzerWithOptions"] + ops.incl["core.NewScenarioAnalyzer"] + rp.incl["core.NewAnalyzerWithOptions"]
	v["core.build_ms"] = ratio(ms(buildTime), float64(builds))
	v["core.build_alloc_kb"] = ratio(oc["core.build_alloc_kb"]+rc["core.build_alloc_kb"], float64(builds))
	curves := ops.count["core.Analyzer.CurvePartial"] + rp.count["core.Analyzer.CurvePartial"]
	v["core.curve_ms"] = ratio(ms(ops.incl["core.Analyzer.CurvePartial"]+rp.incl["core.Analyzer.CurvePartial"]), float64(curves))
	v["core.optimize_ms"] = ops.mean("core.Analyzer.OptimizePhiContext")
	v["core.fallback_points"] = r.counter(obs.CtrFallbackPoints)
	v["core.curve_points"] = oc["curve_points"]
	opsN := float64(r.opCount)
	v["mdcd.series_ms"] = ratio(ms(ops.incl["mdcd.RMGd.measures_series"]+ops.incl["mdcd.RMNdPair.no_failure_series"]+ops.incl["mdcd.RMNd.no_failure_series"]), opsN)
	passes := r.counter(obs.CtrSolvePasses)
	v["ctmc.solve_passes"] = passes
	v["ctmc.passes_per_point"] = ratio(passes, oc["curve_points"])
	v["ctmc.expm_ms"] = ratio(ms(ops.self["ctmc.expm"]), opsN)
	v["ctmc.vanloan_ms"] = ratio(ms(ops.self["ctmc.expm_vanloan"]), opsN)
	v["ctmc.uniformize_ms"] = ratio(ms(ops.self["ctmc.uniformize"]), opsN)
	ch, cm := r.counter(obs.CtrCacheHits), r.counter(obs.CtrCacheMisses)
	v["ctmc.cache.hit_ratio"] = ratio(ch, ch+cm)
	v["template.build_ms"] = ops.mean("template.Build")
	v["template.states"] = r.counter(obs.CtrTemplateStates)
	v["template.build_alloc_kb"] = ratio(oc["template.build_alloc_kb"], float64(ops.count["template.Build"]))
	v["uncertainty.draws_per_s"] = ratio(oc["draws"], ops.incl["uncertainty.PropagateContext"].Seconds())
	v["uncertainty.survival_ratio"] = ratio(oc["draws"], oc["draws_requested"])
	v["robust.retries"] = oc["robust.retries"] + r.counter(obs.CtrRetries)
	return v
}
