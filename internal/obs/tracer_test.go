package obs

import (
	"context"
	"sync"
	"testing"
)

// The untraced fast path must stay free: a context without a tracer makes
// StartSpan, Count and AddEvent no-ops with zero heap allocations, which is
// what lets the solver hot paths call them unconditionally.
func TestUntracedPathAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "ctmc.uniformize")
		sp.SetInt("states", 5)
		sp.Event("nope")
		sp.End()
		Count(c, CtrSolvePasses, 1)
		AddEvent(c, "nope")
	}); n != 0 {
		t.Fatalf("untraced span path allocated %.1f times per run, want 0", n)
	}
}

// Nil-receiver safety: every Span method must tolerate the nil span the
// untraced path hands out.
func TestNilSpanMethodsAreNoOps(t *testing.T) {
	var sp *Span
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1)
	sp.SetStr("k", "v")
	sp.Event("e")
	sp.End()
	if got := sp.Name(); got != "" {
		t.Fatalf("nil span name = %q, want empty", got)
	}
	var tr *Tracer
	tr.Count("c", 1)
	if tr.Counter("c") != 0 || tr.SpanCount() != 0 {
		t.Fatal("nil tracer must read as empty")
	}
}

// StartSpan must build a parent/child tree through the context, and End
// must fold each span's duration into the per-name histogram.
func TestSpanTreeAndStages(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "core.curve")
	ctx2, child := StartSpan(ctx1, "ctmc.series")
	if CurrentSpan(ctx2) != child {
		t.Fatal("context does not carry the innermost span")
	}
	child.SetInt("points", 7)
	child.Event("steady_state_detected")
	child.End()
	_, sibling := StartSpan(ctx1, "ctmc.series")
	sibling.End()
	root.End()

	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}
	doc := Snapshot(tr, Manifest{})
	byName := map[string][]SpanRecord{}
	for _, s := range doc.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["core.curve"]) != 1 || len(byName["ctmc.series"]) != 2 {
		t.Fatalf("unexpected span inventory: %+v", byName)
	}
	rootRec := byName["core.curve"][0]
	if rootRec.Parent != 0 {
		t.Fatalf("root span has parent %d, want 0", rootRec.Parent)
	}
	for _, c := range byName["ctmc.series"] {
		if c.Parent != rootRec.ID {
			t.Fatalf("child parent = %d, want root id %d", c.Parent, rootRec.ID)
		}
	}
	if got := byName["ctmc.series"][0].Attrs["points"]; got != int64(7) {
		t.Fatalf("points attr = %v (%T), want int64(7)", got, got)
	}
	if evs := byName["ctmc.series"][0].Events; len(evs) != 1 || evs[0].Name != "steady_state_detected" {
		t.Fatalf("events = %+v", evs)
	}

	stages := tr.Stages()
	if stages["ctmc.series"].Count != 2 || stages["core.curve"].Count != 1 {
		t.Fatalf("stages = %+v", stages)
	}
	if h := tr.Histograms()["ctmc.series"]; h.Count != 2 {
		t.Fatalf("histogram count = %d, want 2", h.Count)
	}
}

// Counts must reach the tracer and every enclosing scope, and an inner
// scope must see only its own region's counts — the attribution mechanism
// that keeps concurrent analyzers from polluting each other's Solves.
func TestScopeNesting(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, outer := WithScope(ctx)
	Count(ctx, CtrSolvePasses, 2)

	ictx, inner := WithScope(ctx)
	Count(ictx, CtrSolvePasses, 3)

	if got := inner.Counter(CtrSolvePasses); got != 3 {
		t.Fatalf("inner scope = %d, want 3", got)
	}
	if got := outer.Counter(CtrSolvePasses); got != 5 {
		t.Fatalf("outer scope = %d, want 5", got)
	}
	if got := tr.Counter(CtrSolvePasses); got != 5 {
		t.Fatalf("tracer = %d, want 5", got)
	}
	if got := outer.Counters()[CtrSolvePasses]; got != 5 {
		t.Fatalf("Counters() copy = %d, want 5", got)
	}
}

// WithScope must hand out a usable scope even without any tracer, so the
// curve engine can read its solver-pass delta unconditionally.
func TestScopeWithoutTracer(t *testing.T) {
	ctx, sc := WithScope(context.Background())
	if sc == nil {
		t.Fatal("WithScope returned a nil scope")
	}
	Count(ctx, CtrSolvePasses, 4)
	if got := sc.Counter(CtrSolvePasses); got != 4 {
		t.Fatalf("scope = %d, want 4", got)
	}
}

// One tracer must absorb spans and counts from many goroutines at once —
// the shape of a parallel CurvePartialWorkers sweep. Run under -race this
// is the concurrency regression test for the collector.
func TestConcurrentSpansAndCounts(t *testing.T) {
	tr := NewTracer()
	root := WithTracer(context.Background(), tr)
	ctx, scope := WithScope(root)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c, sp := StartSpan(ctx, "robust.item")
				sp.SetInt("index", int64(i))
				Count(c, CtrSolvePasses, 1)
				sp.End()
			}
		}()
	}
	wg.Wait()

	want := int64(workers * perWorker)
	if got := tr.Counter(CtrSolvePasses); got != want {
		t.Fatalf("tracer counter = %d, want %d", got, want)
	}
	if got := scope.Counter(CtrSolvePasses); got != want {
		t.Fatalf("scope counter = %d, want %d", got, want)
	}
	if got := tr.SpanCount(); got != int(want) {
		t.Fatalf("span count = %d, want %d", got, want)
	}
	ids := map[uint64]bool{}
	for _, s := range Snapshot(tr, Manifest{}).Spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// End must be idempotent: a double End records the span once.
func TestEndIdempotent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "x")
	sp.End()
	sp.End()
	if got := tr.SpanCount(); got != 1 {
		t.Fatalf("SpanCount = %d after double End, want 1", got)
	}
}
