package benchreg

import (
	"fmt"
	"sort"
	"time"
)

// DefaultWallTolerance is the relative wall-clock band within which a
// median change is considered runner noise. CI machines are shared and
// thermally unpredictable; the deterministic counters are the precise
// signal, wall clock only catches order-of-magnitude cliffs.
const DefaultWallTolerance = 0.5

// minWallRuns is the fewest repetitions a report needs before its wall
// median can fail a comparison: the median of one or two runs on a
// loaded machine moves beyond any useful band on noise alone.
const minWallRuns = 3

// Diff is one finding of a report comparison.
type Diff struct {
	Benchmark string
	// Kind is one of counter-regression, counter-improvement,
	// counter-drift, wall-regression, wall-improvement, missing, added.
	Kind   string
	Detail string
	// Fail marks findings the CI gate must reject.
	Fail bool
}

func (d Diff) String() string {
	verdict := "note"
	if d.Fail {
		verdict = "FAIL"
	}
	return fmt.Sprintf("[%s] %s %s: %s", verdict, d.Benchmark, d.Kind, d.Detail)
}

// Compare diffs two reports benchmark by benchmark. Deterministic
// counters gate hard: by default a counter is cost-like (lower is
// better), so any increase is a regression; a "ge" rule in the new
// report flips the direction (the counter measures useful work, a
// decrease regresses), and an "eq" rule makes any change a failure.
// Wall-clock medians only fail beyond wallTol (≤0 selects
// DefaultWallTolerance), and only when both reports ran each benchmark
// at least minWallRuns times; otherwise a slower median is a note. A benchmark present in old but missing from new
// fails — a silently shrinking suite would read as "no regressions".
func Compare(old, new *Report, wallTol float64) []Diff {
	if wallTol <= 0 {
		wallTol = DefaultWallTolerance
	}
	var diffs []Diff
	for i := range old.Results {
		or := &old.Results[i]
		nr := new.Result(or.Name)
		if nr == nil {
			diffs = append(diffs, Diff{
				Benchmark: or.Name, Kind: "missing", Fail: true,
				Detail: "benchmark present in old report but absent from new",
			})
			continue
		}
		diffs = append(diffs, compareCounters(or, nr)...)
		diffs = append(diffs, compareWall(or, nr, wallTol)...)
	}
	for i := range new.Results {
		nr := &new.Results[i]
		if old.Result(nr.Name) == nil {
			diffs = append(diffs, Diff{
				Benchmark: nr.Name, Kind: "added",
				Detail: "new benchmark, no baseline to compare",
			})
		}
	}
	return diffs
}

// Failed reports whether any finding is gating.
func Failed(diffs []Diff) bool {
	for _, d := range diffs {
		if d.Fail {
			return true
		}
	}
	return false
}

func compareCounters(or *Result, nr *Result) []Diff {
	var diffs []Diff
	keys := make([]string, 0, len(or.Counters))
	for k := range or.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ov := or.Counters[k]
		nv, ok := nr.Counters[k]
		if !ok {
			diffs = append(diffs, Diff{
				Benchmark: nr.Name, Kind: "counter-drift",
				Detail: fmt.Sprintf("counter %s disappeared (was %d)", k, ov),
			})
			continue
		}
		if nv == ov {
			continue
		}
		dir := "le" // default: cost counter, lower is better
		if rule, ok := nr.Rules[k]; ok && (rule.Op == "ge" || rule.Op == "eq") {
			dir = rule.Op
		}
		worse := nv > ov
		if dir == "ge" {
			worse = nv < ov
		}
		detail := fmt.Sprintf("counter %s: %d -> %d", k, ov, nv)
		if dir == "eq" || worse {
			diffs = append(diffs, Diff{Benchmark: nr.Name, Kind: "counter-regression", Detail: detail, Fail: true})
		} else {
			diffs = append(diffs, Diff{Benchmark: nr.Name, Kind: "counter-improvement", Detail: detail})
		}
	}
	for k, nv := range nr.Counters {
		if _, ok := or.Counters[k]; !ok {
			diffs = append(diffs, Diff{
				Benchmark: nr.Name, Kind: "counter-drift",
				Detail: fmt.Sprintf("new counter %s = %d, no baseline", k, nv),
			})
		}
	}
	return diffs
}

func compareWall(or *Result, nr *Result, tol float64) []Diff {
	ov, nv := or.Wall.MedianNanos, nr.Wall.MedianNanos
	if ov <= 0 {
		return nil
	}
	rel := float64(nv-ov) / float64(ov)
	detail := fmt.Sprintf("wall median %v -> %v (%+.0f%%, tolerance ±%.0f%%)",
		time.Duration(ov).Round(time.Microsecond), time.Duration(nv).Round(time.Microsecond),
		rel*100, tol*100)
	switch {
	case rel > tol && (or.Runs < minWallRuns || nr.Runs < minWallRuns):
		detail += fmt.Sprintf("; not gated: %d and %d runs, fewer than %d", or.Runs, nr.Runs, minWallRuns)
		return []Diff{{Benchmark: nr.Name, Kind: "wall-regression", Detail: detail}}
	case rel > tol:
		return []Diff{{Benchmark: nr.Name, Kind: "wall-regression", Detail: detail, Fail: true}}
	case rel < -tol:
		return []Diff{{Benchmark: nr.Name, Kind: "wall-improvement", Detail: detail}}
	default:
		return nil
	}
}
