package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// metricsTracer returns a tracer holding one plain counter, two samples
// of a labelled counter (one of them zero) and one finished stage.
func metricsTracer() *Tracer {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	c, sp := StartSpan(ctx, "core.curve")
	Count(c, CtrSolvePasses, 8)
	Count(c, Labeled(CtrModelCheckFindings, "check", "RMGd/generator-row-sum"), 0)
	Count(c, Labeled(CtrModelCheckFindings, "check", "RMGp/reward-bounds"), 2)
	sp.End()
	return tr
}

// The text and JSON writers report the same counters and stages as the
// Prometheus writer: every counter by name (labelled ones verbatim, zero
// samples included) and every stage with its count.
func TestWriteMetricsTextAndJSON(t *testing.T) {
	tr := metricsTracer()

	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"counters:\n",
		"  ctmc.solve_passes = 8\n",
		"  modelcheck.findings{check=RMGd/generator-row-sum} = 0\n",
		"  modelcheck.findings{check=RMGp/reward-bounds} = 2\n",
		"stages:\n",
		"  core.curve: count=1 wall=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	if err := tr.WriteMetrics(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int                   `json:"schema_version"`
		Counters      map[string]int64      `json:"counters"`
		Stages        map[string]StageStats `json:"stages"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON metrics not parseable: %v\n%s", err, buf.String())
	}
	if doc.SchemaVersion != MetricsDocVersion {
		t.Errorf("schema_version = %d, want %d", doc.SchemaVersion, MetricsDocVersion)
	}
	if doc.Counters[CtrSolvePasses] != 8 || len(doc.Counters) != 3 {
		t.Errorf("JSON counters = %v", doc.Counters)
	}
	if v, ok := doc.Counters["modelcheck.findings{check=RMGd/generator-row-sum}"]; !ok || v != 0 {
		t.Errorf("zero labelled sample lost from JSON counters: %v", doc.Counters)
	}
	if doc.Stages["core.curve"].Count != 1 {
		t.Errorf("JSON stages = %v", doc.Stages)
	}

	if err := tr.WriteMetrics(&buf, "xml"); err == nil {
		t.Error("unknown metrics format accepted")
	}
}

// The samples of a labelled counter share one Prometheus family: one
// TYPE line, one labelled sample each.
func TestWritePromLabeledCounters(t *testing.T) {
	var buf bytes.Buffer
	if err := metricsTracer().WriteMetrics(&buf, "prom"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gsu_modelcheck_findings_total counter\n" +
			`gsu_modelcheck_findings_total{check="RMGd/generator-row-sum"} 0` + "\n" +
			`gsu_modelcheck_findings_total{check="RMGp/reward-bounds"} 2` + "\n",
		"gsu_ctmc_solve_passes_total 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE gsu_modelcheck_findings_total"); n != 1 {
		t.Errorf("labelled family typed %d times, want once", n)
	}
}
