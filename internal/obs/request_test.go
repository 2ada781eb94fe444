package obs

import (
	"context"
	"testing"
	"time"
)

// TestRequestTracerPropagatesAggregates pins the parent/child contract:
// counters, stage statistics and histogram observations recorded on a
// request tracer reach the parent live, while span objects stay local.
func TestRequestTracerPropagatesAggregates(t *testing.T) {
	parent := NewTracer()
	child := NewRequestTracer(parent)

	ctx := WithTracer(context.Background(), child)
	ctx, root := StartSpan(ctx, "serve.http.curve")
	_, inner := StartSpan(ctx, "core.curve")
	Count(ctx, CtrSolvePasses, 3)
	inner.End()

	// Aggregates must be visible on the parent before the root span ends
	// (the graceful-drain test polls the process tracer mid-request).
	if got := parent.Counter(CtrSolvePasses); got != 3 {
		t.Fatalf("parent counter mid-request = %d, want 3", got)
	}
	if st := parent.Stages()["core.curve"]; st.Count != 1 {
		t.Fatalf("parent core.curve stage mid-request = %+v, want count 1", st)
	}
	root.End()

	if n := parent.SpanCount(); n != 0 {
		t.Fatalf("parent holds %d span objects, want 0 (aggregates only)", n)
	}
	if n := child.SpanCount(); n != 2 {
		t.Fatalf("child holds %d span objects, want 2", n)
	}
	if st := parent.Stages()["serve.http.curve"]; st.Count != 1 {
		t.Fatalf("parent serve.http.curve stage = %+v, want count 1", st)
	}
	if st := child.Stages()["core.curve"]; st.Count != 1 {
		t.Fatalf("child core.curve stage = %+v, want count 1", st)
	}
	if h, ok := parent.Histograms()["core.curve"]; !ok || h.Count != 1 {
		t.Fatalf("parent core.curve histogram = %+v, want one observation", h)
	}
	if got := child.Counter(CtrSolvePasses); got != 3 {
		t.Fatalf("child counter = %d, want 3", got)
	}
}

// TestRequestTracerObservePropagates covers the span-less observation
// path: one observed duration reaches the child's and the parent's
// histogram, and each stage entry reads that histogram's count and sum.
func TestRequestTracerObservePropagates(t *testing.T) {
	parent := NewTracer()
	child := NewRequestTracer(parent)
	ns := int64(5 * time.Millisecond)
	child.observeStage("ctmc.axpy", ns)
	for name, tr := range map[string]*Tracer{"child": child, "parent": parent} {
		h, ok := tr.Histograms()["ctmc.axpy"]
		if !ok || h.Count != 1 || h.SumNanos != ns {
			t.Fatalf("%s histogram = %+v, want one observation of %d ns", name, h, ns)
		}
		if st := tr.Stages()["ctmc.axpy"]; st.Count != 1 || st.Nanos != ns {
			t.Fatalf("%s stage = %+v, want {1 %d}", name, st, ns)
		}
	}
}

// TestRequestTracerGrandparent pins two-level propagation.
func TestRequestTracerGrandparent(t *testing.T) {
	grand := NewTracer()
	mid := NewRequestTracer(grand)
	leaf := NewRequestTracer(mid)
	leaf.Count(CtrServeRequests, 1)
	leaf.observeStage("core.evaluate", 100)
	for name, tr := range map[string]*Tracer{"grand": grand, "mid": mid} {
		if got := tr.Counter(CtrServeRequests); got != 1 {
			t.Fatalf("%s counter = %d, want 1", name, got)
		}
		if st := tr.Stages()["core.evaluate"]; st.Count != 1 || st.Nanos != 100 {
			t.Fatalf("%s stage = %+v, want {1 100}", name, st)
		}
	}
}

// TestAdoptTrace pins the flight-adoption contract: the destination keeps
// its own cancellation while work lands on the source's tracer and under
// its current span.
func TestAdoptTrace(t *testing.T) {
	tr := NewTracer()
	src := WithTracer(context.Background(), tr)
	src, root := StartSpan(src, "serve.http.curve")

	dst, cancel := context.WithCancel(context.Background())
	defer cancel()
	adopted := AdoptTrace(dst, src)

	if got := TracerFrom(adopted); got != tr {
		t.Fatalf("adopted tracer = %p, want %p", got, tr)
	}
	actx, sp := StartSpan(adopted, "core.curve")
	sp.End()
	root.End()
	_ = actx

	doc := Snapshot(tr, Manifest{Tool: "test"})
	if len(doc.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(doc.Spans))
	}
	var child SpanRecord
	for _, s := range doc.Spans {
		if s.Name == "core.curve" {
			child = s
		}
	}
	if child.Parent == 0 {
		t.Fatal("adopted span is not parented under the source's current span")
	}

	// Cancellation follows dst, not src.
	cancel()
	if adopted.Err() == nil {
		t.Fatal("adopted context did not inherit dst's cancellation")
	}
	if src.Err() != nil {
		t.Fatal("canceling dst leaked into src")
	}

	// No traced position on src: dst comes back unchanged.
	if got := AdoptTrace(dst, context.Background()); got != dst {
		t.Fatal("AdoptTrace with untraced src should return dst unchanged")
	}
}

// TestManifestTraceIDRoundTrip pins the additive manifest fields.
func TestManifestTraceIDRoundTrip(t *testing.T) {
	tr := NewTracer()
	doc := Snapshot(tr, Manifest{Tool: "gsuserve", TraceID: "abc123", Route: "curve"})
	if doc.Manifest.TraceID != "abc123" || doc.Manifest.Route != "curve" {
		t.Fatalf("manifest = %+v, want trace id and route preserved", doc.Manifest)
	}
	if doc.Manifest.SchemaVersion != TraceSchemaVersion {
		t.Fatalf("schema version = %d, want %d", doc.Manifest.SchemaVersion, TraceSchemaVersion)
	}
}
