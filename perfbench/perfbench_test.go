package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs (it reads the experiment goldens relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// pinnedCounters are the per-layer counters that are pure functions of
// the code and the seed. On serve only the request count is: its cache
// and engine counters depend on request timing (coalescing, eviction
// order).
var pinnedCounters = []string{
	"ctmc.solve_passes", "parametric.hits", "parametric.fallbacks",
	"replay.parametric.hits", "replay.parametric.fallbacks",
	"template.states", "core.curve_points", "serve.requests",
}

// reached lists, per workload, the pinned counters that must be nonzero:
// the layers the workload exists to exercise.
var reached = map[string][]string{
	"study":     {"ctmc.solve_passes", "core.curve_points"},
	"propagate": {"replay.parametric.hits", "core.curve_points"},
	"scenario":  {"ctmc.solve_passes", "template.states", "core.curve_points"},
	"serve":     {"serve.requests"},
}

// TestTracedCountersRepeat runs every workload's traced pass twice on the
// same seed and requires the deterministic counters to repeat exactly,
// as gsubench requires of its counter pins.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	bin := filepath.Join(t.TempDir(), "gsuserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gsuserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gsuserve: %v\n%s", err, out)
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 2, trace: true, serveBin: bin, outDir: t.TempDir(), log: io.Discard}
			var runs [2]summary
			for i := range runs {
				s, err := runWorkload(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !s.Correct || s.Failed != 0 {
					t.Fatalf("run %d: correct=%v, %d of %d ops failed", i, s.Correct, s.Failed, s.Attempted)
				}
				runs[i] = s
			}
			pinned := pinnedCounters
			if name == "serve" {
				pinned = reached[name]
			}
			for _, c := range pinned {
				if a, b := runs[0].Metrics[c].Value, runs[1].Metrics[c].Value; a != b {
					t.Errorf("%s: %g then %g", c, a, b)
				}
			}
			for _, c := range reached[name] {
				if runs[0].Metrics[c].Value == 0 {
					t.Errorf("%s is 0: the workload did not reach the layer", c)
				}
			}
		})
	}
}

// TestTailLatency pins the tail definition: the highest percentile with
// at least ten samples beyond it.
func TestTailLatency(t *testing.T) {
	ds := make([]int, 100)
	for i := range ds {
		ds[i] = i + 1
	}
	got, pct, n := tailLatency(durations(ds))
	if got != 90 || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v at p%g of %d, want 90 at p90 of 100", got, pct, n)
	}
	if got, pct, _ := tailLatency(durations(ds[:5])); got != 5 || pct != 100 {
		t.Errorf("tail of 5 samples = %v at p%g, want the maximum at p100", got, pct)
	}
}

func durations(xs []int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x)
	}
	return out
}

// TestFailingOpFailsRun injects a batch workload whose second op errors
// and requires the command to count it as wrong and exit nonzero.
func TestFailingOpFailsRun(t *testing.T) {
	workloads["failing"] = func(cfg config) (*outcome, error) {
		ops := []batchOp{
			{kind: "ok", run: func(context.Context) error { return nil }},
			{kind: "bad", run: func(context.Context) error { return errors.New("injected failure") }},
		}
		return runBatch(cfg, "failing", []time.Duration{time.Millisecond}, ops, func() (int, error) { return 0, nil })
	}
	defer delete(workloads, "failing")
	var out bytes.Buffer
	if code := run([]string{"-workload", "failing", "-seconds", "1"}, &out, io.Discard); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if s.Correct || s.Attempted != 2 || s.Failed != 1 {
		t.Errorf("got correct=%v attempted=%d failed=%d, want false, 2, 1", s.Correct, s.Attempted, s.Failed)
	}
}
