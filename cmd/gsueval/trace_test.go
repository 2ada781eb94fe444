package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"guardedop/internal/obs"
)

// The acceptance run of the tracing stack: a 50-point paper-scale sweep
// with -trace must produce a valid JSON trace whose manifest records the
// curve engine's exact solver-pass budget (98 = 49 RMGd series gaps +
// 49 RMNd-pair series gaps) and whose span tree covers every solver layer.
func TestSweepTraceManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	// -parametric=off pins the numeric curve engine; the closed-form
	// path's manifest is pinned by TestSweepTraceManifestParametric.
	if _, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "49", "-parallel", "2", "-parametric", "off", "-trace", path})
	}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	m := doc.Manifest
	if m.SchemaVersion != obs.TraceSchemaVersion {
		t.Errorf("schema_version = %d, want %d", m.SchemaVersion, obs.TraceSchemaVersion)
	}
	if m.Tool != "gsueval" {
		t.Errorf("tool = %q, want gsueval", m.Tool)
	}
	if m.GridPoints != 50 {
		t.Errorf("grid_points = %d, want 50", m.GridPoints)
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
	if m.Params["theta"] != 10000 || m.Params["lambda"] != 1200 {
		t.Errorf("params incomplete: %+v", m.Params)
	}
	// The curve engine's budget on the paper grid: two series sweeps over
	// 49 gaps each. A regression to per-point solving (8 passes × 50
	// points) or a pass-attribution leak shows up here exactly.
	if m.SolverPasses != 98 {
		t.Errorf("solver_passes = %d, want exactly 98", m.SolverPasses)
	}
	if m.Counters[obs.CtrSolvePasses] != 98 {
		t.Errorf("counters[%s] = %d, want 98", obs.CtrSolvePasses, m.Counters[obs.CtrSolvePasses])
	}

	layers := map[string]bool{}
	for _, s := range doc.Spans {
		layers[s.Layer] = true
	}
	for _, want := range []string{"ctmc", "mdcd", "core", "robust"} {
		if !layers[want] {
			t.Errorf("span tree covers no %s spans (layers: %v)", want, layers)
		}
	}
	if len(doc.Histograms) == 0 {
		t.Error("trace carries no duration histograms")
	}
}

// The closed-form acceptance run: the default -parametric=auto sweep at
// the paper parameters must be served entirely by the parametric layer —
// one hit per grid point, zero fallbacks, zero CTMC solver passes — and
// the run manifest must prove it through the counters.
func TestSweepTraceManifestParametric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "49", "-trace", path})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	m := doc.Manifest
	if m.Counters[obs.CtrParametricHits] != 50 {
		t.Errorf("counters[%s] = %d, want 50", obs.CtrParametricHits, m.Counters[obs.CtrParametricHits])
	}
	if m.Counters[obs.CtrParametricFallbacks] != 0 {
		t.Errorf("counters[%s] = %d, want 0", obs.CtrParametricFallbacks, m.Counters[obs.CtrParametricFallbacks])
	}
	if m.SolverPasses != 0 {
		t.Errorf("solver_passes = %d, want 0 (closed forms only)", m.SolverPasses)
	}
}

// The fallback acceptance run: out-of-domain parameters under the default
// -parametric=auto must be served numerically with the fallbacks counted
// in the run manifest.
func TestSweepTraceManifestParametricFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error {
		// MuNew far above the validated domain bound but mdcd-valid.
		return run([]string{"-sweep", "-points", "9", "-munew", "0.5", "-trace", path})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	m := doc.Manifest
	if m.Counters[obs.CtrParametricFallbacks] != 10 {
		t.Errorf("counters[%s] = %d, want 10", obs.CtrParametricFallbacks, m.Counters[obs.CtrParametricFallbacks])
	}
	if m.Counters[obs.CtrParametricHits] != 0 {
		t.Errorf("counters[%s] = %d, want 0", obs.CtrParametricHits, m.Counters[obs.CtrParametricHits])
	}
	if m.SolverPasses == 0 {
		t.Error("solver_passes = 0, want numeric passes on the fallback path")
	}
}

// sweepArgs is the small numeric sweep the -metrics tests run.
var sweepArgs = []string{"-sweep", "-points", "4", "-theta", "2000", "-parametric", "off"}

// sweepMetrics runs the small numeric sweep with -metrics format and
// returns what it wrote to stderr.
func sweepMetrics(t *testing.T, format string) string {
	t.Helper()
	stderr, err := captureStderr(t, func() error {
		_, runErr := capture(t, func() error {
			return run(append(append([]string{}, sweepArgs...), "-metrics", format))
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return stderr
}

// The -metrics json document is a consumer contract: it must carry the
// schema version stamp and only keys the schema pins. A new key means a
// schema bump, not a silent extension.
func TestMetricsJSONSchemaGolden(t *testing.T) {
	stderr := sweepMetrics(t, "json")
	var doc map[string]any
	if jerr := json.Unmarshal([]byte(stderr), &doc); jerr != nil {
		t.Fatalf("-metrics json is not valid JSON: %v\n%s", jerr, stderr)
	}
	if v, ok := doc["schema_version"].(float64); !ok || v != 2 {
		t.Errorf("schema_version = %v, want 2", doc["schema_version"])
	}
	pinned := []string{"schema_version", "counters", "stages"}
	for key := range doc {
		if !slices.Contains(pinned, key) {
			t.Errorf("metrics document grew unpinned key %q — bump obs.MetricsDocVersion and the golden set together", key)
		}
	}
	for _, key := range pinned {
		if _, ok := doc[key]; !ok {
			t.Errorf("metrics document missing required key %q:\n%s", key, stderr)
		}
	}
}

// -metrics json reads the same tracer as -trace: its solver-pass counter
// equals the trace manifest's solver_passes for the same arguments.
func TestMetricsJSONSolvePassesMatchTrace(t *testing.T) {
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if stderr := sweepMetrics(t, "json"); json.Unmarshal([]byte(stderr), &doc) != nil {
		t.Fatalf("-metrics json is not valid JSON:\n%s", stderr)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error {
		return run(append(append([]string{}, sweepArgs...), "-trace", path))
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace obs.TraceDoc
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	// Two series sweeps over the grid's 4 gaps.
	if got, want := doc.Counters[obs.CtrSolvePasses], trace.Manifest.SolverPasses; got != want || want != 8 {
		t.Errorf("-metrics json %s = %d, trace solver_passes = %d, want both 8", obs.CtrSolvePasses, got, want)
	}
}

// -metrics prom must expose the run as Prometheus text families: traced
// counters, batch counters, stage aggregates, and span histograms.
func TestMetricsPromSweep(t *testing.T) {
	stderr := sweepMetrics(t, "prom")
	for _, want := range []string{
		"# TYPE gsu_ctmc_solve_passes_total counter",
		"gsu_robust_attempts_total",
		`gsu_stage_total{stage="core.curve"} 1`,
		"# TYPE gsu_span_duration_seconds histogram",
		`le="+Inf"`,
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("prom output missing %q:\n%s", want, stderr)
		}
	}
}
