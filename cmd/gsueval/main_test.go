package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := fn()
	w.Close()
	out := <-done
	return out, runErr
}

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig9", "fig12", "table2", "valsim", "sensitivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-experiment", "table3"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10000") || !strings.Contains(out, "1200") {
		t.Errorf("table3 output incomplete:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-experiment", "nope"}) }); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSweep(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "4", "-theta", "2000"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimal phi (grid)") {
		t.Errorf("sweep output missing optimum:\n%s", out)
	}
}

func TestRunSweepCSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-sweep", "-csv", "-points", "2", "-theta", "2000"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV rows = %d, want header + 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "phi,Y,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestRunFigureCSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-experiment", "fig12", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "phi,") {
		t.Errorf("figure CSV output = %q...", out[:40])
	}
}

func TestRunCSVRejectsNonFigure(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-experiment", "table1", "-csv"})
	}); err == nil {
		t.Error("-csv with table experiment accepted")
	}
}

func TestRunNoModeErrors(t *testing.T) {
	if _, err := capture(t, func() error { return run(nil) }); err == nil {
		t.Error("no mode accepted")
	}
}

func TestRunSweepInvalidParams(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-sweep", "-lambda", "-3"})
	}); err == nil {
		t.Error("invalid lambda accepted")
	}
}

func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain", errors.New("boom"), exitFailure},
		{"selfcheck", &codedError{code: exitSelfCheckFail, err: errors.New("invariant")}, exitSelfCheckFail},
		{"partial", &codedError{code: exitPartial, err: errors.New("3 failed")}, exitPartial},
		{"wrapped", fmt.Errorf("outer: %w", &codedError{code: exitPartial, err: errors.New("inner")}), exitPartial},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestModelCheckBaselinePassesCLI(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-modelcheck"}) })
	if err != nil {
		t.Fatalf("modelcheck on defaults failed: %v\n%s", err, out)
	}
	for _, want := range []string{"RMGd", "RMGp", "RMNd(mu_new)", "RMNd(mu_old)", "modelcheck: PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("modelcheck output missing %q:\n%s", want, out)
		}
	}
}

func TestModelCheckInvalidParamsFails(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-modelcheck", "-coverage", "2"})
	}); err == nil {
		t.Error("modelcheck accepted coverage > 1")
	}
}

func TestSelfCheckRunsModelCheckFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator cross-check; skipped in -short mode")
	}
	out, err := capture(t, func() error { return run([]string{"-selfcheck"}) })
	if err != nil {
		t.Fatal(err)
	}
	mc := strings.Index(out, "modelcheck: static model verification")
	inv := strings.Index(out, "invariant suite")
	if mc < 0 || inv < 0 || mc > inv {
		t.Errorf("modelcheck gate not run before the invariant suite (modelcheck at %d, suite at %d)", mc, inv)
	}
}

func TestSelfCheckBaselinePassesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator cross-check; skipped in -short mode")
	}
	out, err := capture(t, func() error { return run([]string{"-selfcheck"}) })
	if err != nil {
		t.Fatalf("selfcheck on defaults failed: %v\n%s", err, out)
	}
	for _, want := range []string{"invariant suite", "Y(0) identity", "simulator cross-check", "self-check: PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("selfcheck output missing %q:\n%s", want, out)
		}
	}
}

func TestSelfCheckDegenerateParamsExitTwo(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-selfcheck", "-lambda", "0"}) })
	if err == nil {
		t.Fatal("selfcheck accepted a degenerate parameter set")
	}
	if got := exitCode(err); got != exitSelfCheckFail {
		t.Errorf("exit code = %d, want %d (err: %v)", got, exitSelfCheckFail, err)
	}
	if !errors.Is(err, robust.ErrInvariant) {
		t.Errorf("failure not classified as invariant violation: %v", err)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("report does not mark the failed check:\n%s", out)
	}
}

func TestTimeoutCancelsSweep(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "6", "-timeout", "1ns"})
	})
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := exitCode(err); got != exitFailure {
		t.Errorf("timeout exit code = %d, want %d", got, exitFailure)
	}
}

func TestSweepKeepGoingSkipsBadPoints(t *testing.T) {
	// MuNew this large makes high-phi points hit the E[W_phi] <= E[W_I]
	// guard region on some grids; with a clean parameter set keep-going
	// must behave exactly like the strict mode.
	out, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "4", "-theta", "2000", "-keep-going"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimal phi (grid)") {
		t.Errorf("keep-going sweep lost the optimum:\n%s", out)
	}
}

// captureStderr redirects stderr around fn — the metrics dump goes there
// so it never mixes with report output or CSV on stdout.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()

	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := fn()
	w.Close()
	out := <-done
	return out, runErr
}

func TestRunRejectsBogusMetricsMode(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-sweep", "-points", "2", "-theta", "2000", "-metrics", "bogus"})
	}); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Errorf("err = %v, want a -metrics validation error", err)
	}
}

func TestRunSweepParallelMatchesSequential(t *testing.T) {
	argv := func(workers string) []string {
		return []string{"-sweep", "-points", "4", "-theta", "2000", "-parallel", workers}
	}
	seq, err := capture(t, func() error { return run(argv("1")) })
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, func() error { return run(argv("4")) })
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("-parallel 4 sweep output differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
}

// modelCheckMetrics runs -modelcheck with the given -metrics format and
// returns what it wrote to stderr.
func modelCheckMetrics(t *testing.T, format string) string {
	t.Helper()
	stderr, err := captureStderr(t, func() error {
		_, runErr := capture(t, func() error {
			return run([]string{"-modelcheck", "-metrics", format})
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return stderr
}

func TestModelCheckMetricsJSON(t *testing.T) {
	stderr := modelCheckMetrics(t, "json")
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if jerr := json.Unmarshal([]byte(stderr), &doc); jerr != nil {
		t.Fatalf("-metrics json did not emit parseable JSON on stderr: %v\n%s", jerr, stderr)
	}
	// The baseline model set is clean, so every per-check counter exists
	// with zero findings; the RMGd generator-row check must be among them.
	checks := 0
	for key, n := range doc.Counters {
		if !strings.HasPrefix(key, obs.CtrModelCheckFindings+"{") {
			continue
		}
		checks++
		if n != 0 {
			t.Errorf("baseline model check %s reports %d findings", key, n)
		}
	}
	if checks == 0 {
		t.Fatalf("metrics carry no model-check counters:\n%s", stderr)
	}
	if n, ok := doc.Counters[obs.Labeled(obs.CtrModelCheckFindings, "check", "RMGd/generator-row-sum")]; !ok || n != 0 {
		t.Errorf("RMGd/generator-row-sum findings = %d (present %v), want a listed 0", n, ok)
	}
}

func TestModelCheckMetricsText(t *testing.T) {
	stderr := modelCheckMetrics(t, "text")
	if !strings.Contains(stderr, "  modelcheck.findings{check=RMGd/generator-row-sum} = 0\n") {
		t.Errorf("text metrics missing the RMGd/generator-row-sum check:\n%s", stderr)
	}
	// No batch ran, so the dump must not invent one.
	if strings.Contains(stderr, "batch") {
		t.Errorf("text metrics report a batch that never ran:\n%s", stderr)
	}
}

func TestModelCheckMetricsProm(t *testing.T) {
	stderr := modelCheckMetrics(t, "prom")
	for _, want := range []string{
		"# TYPE gsu_modelcheck_findings_total counter\n",
		`gsu_modelcheck_findings_total{check="RMGd/generator-row-sum"} 0` + "\n",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("prom metrics missing %q:\n%s", want, stderr)
		}
	}
}

func TestRunAllWithOutDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment incl. Monte-Carlo; skipped in -short mode")
	}
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-all", "-out", dir}) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/fig9.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "optimal phi") {
		t.Errorf("fig9 report file incomplete:\n%s", data)
	}
}
