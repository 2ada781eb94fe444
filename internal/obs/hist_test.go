package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestHistogramOverflowBucketAccounting is the regression test for
// observations above the top decade bound (10s): they must land in the
// overflow bucket — never be dropped — so Counts always sums to Count
// and both /debug/traces documents and Prometheus expositions account
// for every observation.
func TestHistogramOverflowBucketAccounting(t *testing.T) {
	var h Histogram
	top := histBounds[len(histBounds)-1]
	h.observe(500)       // first bucket
	h.observe(top)       // exactly the top bound: last bounded bucket
	h.observe(top + 1)   // just past the top bound: overflow
	h.observe(100 * top) // deep overflow
	h.observe(1 << 62)   // pathological overflow
	snap := h.snapshot()

	if len(snap.Counts) != len(snap.BoundsNanos)+1 {
		t.Fatalf("Counts has %d entries for %d bounds, want bounds+1 (overflow)",
			len(snap.Counts), len(snap.BoundsNanos))
	}
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != snap.Count || snap.Count != 5 {
		t.Fatalf("Counts sums to %d with Count = %d, want both 5 (observations dropped?)", sum, snap.Count)
	}
	if got := snap.Counts[len(snap.Counts)-1]; got != 3 {
		t.Fatalf("overflow bucket = %d, want 3", got)
	}
	if got := snap.Counts[len(snap.Counts)-2]; got != 1 {
		t.Fatalf("top bounded bucket = %d, want 1 (the exactly-at-bound observation)", got)
	}
}

// TestHistogramOverflowInPromExposition pins the exposition side: the
// +Inf cumulative bucket equals the observation count even when every
// observation overflows the bounded buckets.
func TestHistogramOverflowInPromExposition(t *testing.T) {
	tr := NewTracer()
	tr.observeStage("ctmc.solve", int64(25*time.Second)) // above the 10s top bound
	tr.observeStage("ctmc.solve", int64(time.Minute))

	var buf bytes.Buffer
	if err := WritePromText(&buf, nil, nil, tr.Histograms()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `gsu_span_duration_seconds_bucket{span="ctmc.solve",le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket does not account for overflow observations:\n%s", out)
	}
	if !strings.Contains(out, `gsu_span_duration_seconds_count{span="ctmc.solve"} 2`) {
		t.Fatalf("histogram count wrong:\n%s", out)
	}
	// Every bounded bucket is empty; the two observations exist only past
	// the top bound.
	if !strings.Contains(out, `gsu_span_duration_seconds_bucket{span="ctmc.solve",le="10"} 0`) {
		t.Fatalf("bounded buckets should be empty for overflow-only data:\n%s", out)
	}
}

// TestHistogramOverflowInTraceDoc pins the /debug/traces side of the same
// contract through Snapshot.
func TestHistogramOverflowInTraceDoc(t *testing.T) {
	tr := NewTracer()
	tr.observeStage("core.curve", int64(time.Hour))
	doc := Snapshot(tr, Manifest{Tool: "test"})
	h, ok := doc.Histograms["core.curve"]
	if !ok {
		t.Fatal("histogram missing from trace doc")
	}
	if got := h.Counts[len(h.Counts)-1]; got != 1 || h.Count != 1 {
		t.Fatalf("overflow observation lost in trace doc: overflow=%d count=%d, want 1/1", got, h.Count)
	}
}
