package core

import (
	"context"
	"sync"
	"testing"
)

// One numeric analyzer shared by many goroutines — the serving path's
// access pattern — must give every caller the results a sequential caller
// gets, bit for bit. Run under -race it also checks that point evaluation,
// curve sweeps and the optimizer share no mutable state.
func TestSharedAnalyzerConcurrentCallsBitIdentical(t *testing.T) {
	a := newAnalyzer(t, nil)
	ctx := context.Background()
	phis := []float64{0, 1250, 7000, 9999.5, 10000}
	grid := SweepGrid(10000, 12)
	opts := OptimizeOptions{GridPoints: 10, Tolerance: 10, Workers: 1}

	type outcome struct {
		points []Result
		curve  []Result
		best   Result
	}
	run := func(workers int) (outcome, error) {
		var o outcome
		for _, phi := range phis {
			r, err := a.EvaluateContext(ctx, phi)
			if err != nil {
				return o, err
			}
			o.points = append(o.points, r)
		}
		pr, err := a.CurvePartialWorkers(ctx, grid, workers)
		if err != nil {
			return o, err
		}
		o.curve = pr.Results
		o.best, err = a.OptimizePhiContext(ctx, opts)
		return o, err
	}

	want, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	got := make([]outcome, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(1 + g%3)
		}()
	}
	wg.Wait()

	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range phis {
			if got[g].points[i] != want.points[i] {
				t.Errorf("goroutine %d: Evaluate(%g) differs from the sequential result", g, phis[i])
			}
		}
		for i := range grid {
			if got[g].curve[i] != want.curve[i] {
				t.Errorf("goroutine %d: curve point %g differs from the sequential result", g, grid[i])
			}
		}
		if got[g].best != want.best {
			t.Errorf("goroutine %d: optimum (%g, %g) differs from sequential (%g, %g)",
				g, got[g].best.Phi, got[g].best.Y, want.best.Phi, want.best.Y)
		}
	}
}
