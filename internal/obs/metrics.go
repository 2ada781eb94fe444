package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// MetricsDocVersion identifies the layout of the JSON metrics document
// written by Tracer.WriteJSON (`-metrics json`). Bump it on any change
// to the document's key set or field semantics; consumers pin against
// it (see the golden schema test in cmd/gsueval).
const MetricsDocVersion = 2

// metricsDoc is the JSON metrics document: the run's counters and its
// span aggregates by stage name.
type metricsDoc struct {
	SchemaVersion int                   `json:"schema_version"`
	Counters      map[string]int64      `json:"counters"`
	Stages        map[string]StageStats `json:"stages"`
}

// WriteMetrics renders the tracer's run metrics in one of the `-metrics`
// formats: "text", "json" or "prom".
func (t *Tracer) WriteMetrics(w io.Writer, format string) error {
	switch format {
	case "text":
		return t.WriteText(w)
	case "json":
		return t.WriteJSON(w)
	case "prom":
		return t.WriteProm(w)
	default:
		return fmt.Errorf("obs: metrics format must be \"text\", \"json\" or \"prom\", got %q", format)
	}
}

// WriteText renders the tracer's counters and stage aggregates as a
// human-readable block, one line per counter and per stage, in name
// order.
func (t *Tracer) WriteText(w io.Writer) error {
	counters, stages := t.Counters(), t.Stages()
	var b strings.Builder
	b.WriteString("counters:\n")
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(&b, "  %s = %d\n", name, counters[name])
	}
	b.WriteString("stages:\n")
	for _, name := range sortedKeys(stages) {
		st := stages[name]
		fmt.Fprintf(&b, "  %s: count=%d wall=%v\n", name, st.Count, time.Duration(st.Nanos))
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("obs: writing metrics text: %w", err)
	}
	return nil
}

// WriteJSON renders the tracer's counters and stage aggregates as one
// indented JSON document stamped with MetricsDocVersion.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := metricsDoc{
		SchemaVersion: MetricsDocVersion,
		Counters:      t.Counters(),
		Stages:        t.Stages(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: writing metrics json: %w", err)
	}
	return nil
}

// WriteProm renders the tracer's counters, stages and histograms in the
// Prometheus text exposition format (see WritePromText).
func (t *Tracer) WriteProm(w io.Writer) error {
	return WritePromText(w, t.Counters(), t.Stages(), t.Histograms())
}
