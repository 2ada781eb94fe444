package core

import (
	"context"
	"sync"
	"testing"

	"guardedop/internal/obs"
)

// Two analyzers sweeping the same grid concurrently must each count
// exactly their own solver passes into the scope their caller opened. A
// delta of a process-wide counter would leak a concurrent sweep's passes
// into the other run's count; the context-scoped counters make the
// attribution exact.
func TestConcurrentAnalyzersAttributeOwnSolves(t *testing.T) {
	grid := SweepGrid(10000, 49) // the paper-scale 50-point acceptance grid

	ref := newAnalyzer(t, nil)
	ctx, scope := obs.WithScope(context.Background())
	if _, err := ref.CurvePartialWorkers(ctx, grid, 2); err != nil {
		t.Fatal(err)
	}
	want := scope.Counter(obs.CtrSolvePasses)
	if want <= 0 {
		t.Fatal("sequential baseline recorded no solver passes")
	}

	const runs = 2
	analyzers := make([]*Analyzer, runs)
	for i := range analyzers {
		analyzers[i] = newAnalyzer(t, nil)
	}
	solves := make([]int64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range analyzers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, scope := obs.WithScope(context.Background())
			if _, err := analyzers[i].CurvePartialWorkers(ctx, grid, 2); err != nil {
				errs[i] = err
				return
			}
			solves[i] = scope.Counter(obs.CtrSolvePasses)
		}()
	}
	wg.Wait()

	for i := range analyzers {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if solves[i] != want {
			t.Errorf("concurrent run %d reported %d solver passes, want exactly %d (pollution from the other run?)",
				i, solves[i], want)
		}
	}
}
