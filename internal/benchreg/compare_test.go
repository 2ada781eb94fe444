package benchreg

import (
	"strings"
	"testing"
)

// baseline builds a two-benchmark report the compare tests doctor.
func baseline() *Report {
	rep := NewReport(1)
	rep.Results = []Result{
		{
			Name:     "grid",
			Runs:     3,
			Wall:     Wall{MinNanos: 900, MedianNanos: 1000, MaxNanos: 1100},
			Counters: map[string]int64{"ctmc.solve_passes": 98, "parametric.hits": 50},
			Rules:    map[string]Rule{"parametric.hits": {Op: "ge", Value: 50}},
		},
		{
			Name:     "serve",
			Runs:     3,
			Wall:     Wall{MinNanos: 90, MedianNanos: 100, MaxNanos: 110},
			Counters: map[string]int64{"serve.requests": 256},
			Rules:    map[string]Rule{"serve.requests": {Op: "eq", Value: 256}},
		},
	}
	return rep
}

func failsOfKind(diffs []Diff, kind string) int {
	n := 0
	for _, d := range diffs {
		if d.Kind == kind && d.Fail {
			n++
		}
	}
	return n
}

func TestCompareIdenticalReportsClean(t *testing.T) {
	diffs := Compare(baseline(), baseline(), 0)
	if len(diffs) != 0 {
		t.Fatalf("identical reports produced diffs: %v", diffs)
	}
	if Failed(diffs) {
		t.Fatal("Failed(empty) = true")
	}
}

func TestCompareCounterRegressionFails(t *testing.T) {
	new := baseline()
	new.Result("grid").Counters["ctmc.solve_passes"] = 120 // cost counter up

	diffs := Compare(baseline(), new, 0)
	if failsOfKind(diffs, "counter-regression") != 1 || !Failed(diffs) {
		t.Fatalf("injected regression not gated: %v", diffs)
	}
}

func TestCompareCounterImprovementIsNote(t *testing.T) {
	new := baseline()
	new.Result("grid").Counters["ctmc.solve_passes"] = 50 // cost counter down

	diffs := Compare(baseline(), new, 0)
	if Failed(diffs) {
		t.Fatalf("improvement gated as failure: %v", diffs)
	}
	if failsOfKind(diffs, "counter-improvement") != 0 {
		t.Fatalf("improvement marked Fail: %v", diffs)
	}
	found := false
	for _, d := range diffs {
		if d.Kind == "counter-improvement" {
			found = true
		}
	}
	if !found {
		t.Fatalf("improvement not noted: %v", diffs)
	}
}

func TestCompareGeRuleFlipsDirection(t *testing.T) {
	// parametric.hits carries a ge rule: it counts useful work, so a
	// DECREASE regresses and an increase improves.
	down := baseline()
	down.Result("grid").Counters["parametric.hits"] = 10
	if diffs := Compare(baseline(), down, 0); failsOfKind(diffs, "counter-regression") != 1 {
		t.Fatalf("ge-counter decrease not gated: %v", diffs)
	}

	up := baseline()
	up.Result("grid").Counters["parametric.hits"] = 60
	if diffs := Compare(baseline(), up, 0); Failed(diffs) {
		t.Fatalf("ge-counter increase gated: %v", diffs)
	}
}

func TestCompareEqRuleGatesAnyChange(t *testing.T) {
	for _, v := range []int64{255, 257} {
		new := baseline()
		new.Result("serve").Counters["serve.requests"] = v
		if diffs := Compare(baseline(), new, 0); failsOfKind(diffs, "counter-regression") != 1 {
			t.Fatalf("eq-counter change to %d not gated: %v", v, diffs)
		}
	}
}

func TestCompareWallTolerance(t *testing.T) {
	slower := baseline()
	slower.Result("grid").Wall.MedianNanos = 1600 // +60% > default 50%
	diffs := Compare(baseline(), slower, 0)
	if failsOfKind(diffs, "wall-regression") != 1 {
		t.Fatalf("+60%% wall not gated at default tolerance: %v", diffs)
	}

	// The same report passes under a wider band.
	if diffs := Compare(baseline(), slower, 0.75); Failed(diffs) {
		t.Fatalf("+60%% wall gated at 75%% tolerance: %v", diffs)
	}

	faster := baseline()
	faster.Result("grid").Wall.MedianNanos = 200
	diffs = Compare(baseline(), faster, 0)
	if Failed(diffs) {
		t.Fatalf("wall improvement gated: %v", diffs)
	}
	if failsOfKind(diffs, "wall-improvement") != 0 {
		t.Fatalf("wall improvement marked Fail: %v", diffs)
	}
}

// A wall median from fewer than three runs is noise: a slower median is
// a note that says why it is not gated, never a failure. Counters still
// gate such reports.
func TestCompareWallUngatedBelowThreeRuns(t *testing.T) {
	for _, runs := range [][2]int{{1, 3}, {3, 1}, {2, 2}} {
		old, slower := baseline(), baseline()
		old.Result("grid").Runs = runs[0]
		slower.Result("grid").Runs = runs[1]
		slower.Result("grid").Wall.MedianNanos = 1700 // +70% > default 50%
		diffs := Compare(old, slower, 0)
		if Failed(diffs) || len(diffs) != 1 || diffs[0].Kind != "wall-regression" ||
			!strings.Contains(diffs[0].Detail, "not gated") {
			t.Fatalf("runs %v: want one ungated wall-regression note, got %v", runs, diffs)
		}
		slower.Result("grid").Counters["ctmc.solve_passes"] = 120
		if diffs := Compare(old, slower, 0); failsOfKind(diffs, "counter-regression") != 1 {
			t.Fatalf("runs %v: counter regression not gated: %v", runs, diffs)
		}
	}
}

func TestCompareMissingAndAddedBenchmarks(t *testing.T) {
	new := baseline()
	new.Results = new.Results[:1] // drop "serve"
	new.Results = append(new.Results, Result{Name: "fresh", Counters: map[string]int64{"n": 1}})

	diffs := Compare(baseline(), new, 0)
	if failsOfKind(diffs, "missing") != 1 {
		t.Fatalf("dropped benchmark not gated: %v", diffs)
	}
	added := 0
	for _, d := range diffs {
		if d.Kind == "added" {
			added++
			if d.Fail {
				t.Fatalf("added benchmark gated: %v", d)
			}
		}
	}
	if added != 1 {
		t.Fatalf("added benchmark not noted: %v", diffs)
	}
}

func TestCompareCounterDriftIsNote(t *testing.T) {
	new := baseline()
	delete(new.Result("grid").Counters, "parametric.hits")
	new.Result("grid").Counters["brand.new"] = 4

	diffs := Compare(baseline(), new, 0)
	if Failed(diffs) {
		t.Fatalf("counter drift gated: %v", diffs)
	}
	drift := 0
	for _, d := range diffs {
		if d.Kind == "counter-drift" {
			drift++
		}
	}
	if drift != 2 {
		t.Fatalf("want 2 drift notes (disappeared + new), got %v", diffs)
	}
}

func TestDiffString(t *testing.T) {
	fail := Diff{Benchmark: "grid", Kind: "counter-regression", Detail: "x", Fail: true}
	if s := fail.String(); !strings.HasPrefix(s, "[FAIL] grid") {
		t.Fatalf("Fail diff string = %q", s)
	}
	note := Diff{Benchmark: "grid", Kind: "added", Detail: "x"}
	if s := note.String(); !strings.HasPrefix(s, "[note] grid") {
		t.Fatalf("note diff string = %q", s)
	}
}
