package core

import (
	"context"
	"sync"
	"testing"
)

// Two analyzers sweeping the same grid concurrently must each report
// exactly their own solver passes in Metrics.Solves. A delta of a
// process-wide counter would leak a concurrent sweep's passes into the
// other run's metrics; the context-scoped counters make the attribution
// exact.
func TestConcurrentAnalyzersAttributeOwnSolves(t *testing.T) {
	grid := SweepGrid(10000, 49) // the paper-scale 50-point acceptance grid

	ref := newAnalyzer(t, nil)
	pr, err := ref.CurvePartialWorkers(context.Background(), grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := pr.Report.Metrics.Solves
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
			pr, err := analyzers[i].CurvePartialWorkers(context.Background(), grid, 2)
			if err != nil {
				errs[i] = err
				return
			}
			solves[i] = pr.Report.Metrics.Solves
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
