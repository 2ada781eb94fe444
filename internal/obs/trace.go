package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// TraceSchemaVersion identifies the layout of the JSON trace document.
// Bump it on any change that could break a dashboard reading the file.
const TraceSchemaVersion = 1

// Manifest describes the run that produced a trace: what was solved,
// with which parameters, at what parallelism, and what it cost. It is the
// record a future perf PR compares against instead of re-running ad-hoc
// benchmarks.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	// TraceID and Route identify one served request's trace in the
	// daemon's /debug/traces ring (additive to schema version 1; empty on
	// whole-run CLI traces). TraceID is the request's X-Trace-Id value,
	// so a document can be found from an access-log line and vice versa.
	TraceID string `json:"trace_id,omitempty"`
	Route   string `json:"route,omitempty"`
	// Params is the solved parameter set, keyed by flag name.
	Params map[string]float64 `json:"params,omitempty"`
	// Seed is the RNG seed of simulation-backed runs; 0 for analytic runs.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the configured worker-pool bound (0 = all cores).
	Workers int `json:"workers"`
	// GridPoints is the φ-grid size of sweep runs.
	GridPoints int `json:"grid_points,omitempty"`
	// SolverPasses is the run's CTMC solver-pass total (the curve engine's
	// budget observable).
	SolverPasses int64 `json:"solver_passes"`
	// Counters carries every tracer counter of the run.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// SpanRecord is the serialized form of one finished span.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Layer is the solver layer that emitted the span: the span name's
	// dotted prefix (ctmc, mdcd, core, robust, ...).
	Layer      string         `json:"layer"`
	StartNanos int64          `json:"start_ns"`
	DurNanos   int64          `json:"dur_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []Event        `json:"events,omitempty"`
}

// TraceDoc is the full JSON trace document: the manifest plus the span
// tree and the duration histograms.
type TraceDoc struct {
	Manifest   Manifest                `json:"manifest"`
	Spans      []SpanRecord            `json:"spans"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// SpanLayer returns the solver layer of a span name: its dotted prefix,
// or the whole name when it has none.
func SpanLayer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Snapshot assembles the trace document from the tracer's finished spans
// under the given manifest. It stamps the schema version, and fills the
// manifest's Counters (from the tracer) and SolverPasses (from the
// CtrSolvePasses counter) when the caller left them unset.
func Snapshot(tr *Tracer, man Manifest) TraceDoc {
	man.SchemaVersion = TraceSchemaVersion
	if man.Counters == nil {
		man.Counters = tr.Counters()
	}
	if man.SolverPasses == 0 {
		man.SolverPasses = man.Counters[CtrSolvePasses]
	}
	doc := TraceDoc{Manifest: man, Spans: []SpanRecord{}, Histograms: tr.Histograms()}
	if tr == nil {
		return doc
	}
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	tr.mu.Unlock()
	// End order is completion order; start order reads as a tree.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	for _, s := range spans {
		rec := SpanRecord{
			ID:         s.id,
			Parent:     s.parent,
			Name:       s.name,
			Layer:      SpanLayer(s.name),
			StartNanos: s.start.Nanoseconds(),
			DurNanos:   s.dur.Nanoseconds(),
			Events:     s.events,
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				rec.Attrs[a.Key] = a.Value
			}
		}
		doc.Spans = append(doc.Spans, rec)
	}
	return doc
}

// WriteTrace writes the tracer's trace document as indented JSON.
func WriteTrace(w io.Writer, tr *Tracer, man Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Snapshot(tr, man)); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}

// WriteTraceFile writes the tracer's trace document to path (the
// binaries' -trace flag).
func WriteTraceFile(path string, tr *Tracer, man Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	werr := WriteTrace(f, tr, man)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("trace: %w", cerr)
	}
	return werr
}
