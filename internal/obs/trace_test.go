package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanLayer(t *testing.T) {
	for name, want := range map[string]string{
		"ctmc.uniformize":                 "ctmc",
		"mdcd.RMGd.measures_series":       "mdcd",
		"core.segment":                    "core",
		"robust.item":                     "robust",
		"bare":                            "bare",
		"mdcd.RMNdPair.no_failure_series": "mdcd",
	} {
		if got := SpanLayer(name); got != want {
			t.Errorf("SpanLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

// WriteTrace must emit a valid JSON document whose manifest is stamped
// with the schema version and auto-filled with the tracer's counters and
// solver-pass total when the caller left them unset.
func TestWriteTraceManifestAutofill(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	c, sp := StartSpan(ctx, "core.curve")
	Count(c, CtrSolvePasses, 42)
	Count(c, CtrFallbackPoints, 3)
	sp.End()

	var buf bytes.Buffer
	man := Manifest{
		Tool:       "gsueval",
		Params:     map[string]float64{"theta": 10000},
		Workers:    2,
		GridPoints: 50,
	}
	if err := WriteTrace(&buf, tr, man); err != nil {
		t.Fatal(err)
	}

	var doc TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	m := doc.Manifest
	if m.SchemaVersion != TraceSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", m.SchemaVersion, TraceSchemaVersion)
	}
	if m.SolverPasses != 42 {
		t.Fatalf("solver_passes = %d, want auto-filled 42", m.SolverPasses)
	}
	if m.Counters[CtrFallbackPoints] != 3 {
		t.Fatalf("counters = %+v, want fallback points 3", m.Counters)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Layer != "core" {
		t.Fatalf("spans = %+v", doc.Spans)
	}
}

// A caller-set SolverPasses must not be overwritten by the autofill.
func TestSnapshotKeepsExplicitSolverPasses(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	Count(ctx, CtrSolvePasses, 10)
	doc := Snapshot(tr, Manifest{SolverPasses: 7})
	if doc.Manifest.SolverPasses != 7 {
		t.Fatalf("solver_passes = %d, want explicit 7", doc.Manifest.SolverPasses)
	}
}

// Span ids must come out sorted so the serialized span list reads as a
// stable tree regardless of End order.
func TestSnapshotSortsSpansByID(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx1, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx1, "b")
	b.End()
	a.End() // ends after b: End order is b, a; id order is a, b
	doc := Snapshot(tr, Manifest{})
	if len(doc.Spans) != 2 || doc.Spans[0].Name != "a" || doc.Spans[1].Name != "b" {
		t.Fatalf("spans out of id order: %+v", doc.Spans)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(500)            // ≤1µs bucket
	h.observe(5_000_000)      // ≤10ms bucket
	h.observe(20_000_000_000) // overflow
	s := h.snapshot()
	if s.Count != 3 || s.SumNanos != 500+5_000_000+20_000_000_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("1µs bucket = %d, want 1", s.Counts[0])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
}

// The Prometheus exposition must name counters under the gsu namespace,
// label stages and histogram buckets, and order output deterministically.
func TestWritePromText(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	c, sp := StartSpan(ctx, "ctmc.uniformize")
	Count(c, CtrSolvePasses, 5)
	sp.End()
	tr.observeStage("core.evaluate", int64(2*time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gsu_ctmc_solve_passes_total counter",
		"gsu_ctmc_solve_passes_total 5",
		`gsu_stage_total{stage="ctmc.uniformize"} 1`,
		"# TYPE gsu_span_duration_seconds histogram",
		`gsu_span_duration_seconds_count{span="core.evaluate"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := tr.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("prom output is not deterministic across identical snapshots")
	}
}
