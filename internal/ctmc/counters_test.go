package ctmc

import (
	"context"
	"testing"

	"guardedop/internal/obs"
)

// Context-carried scopes must see exactly the solver passes of their own
// region even when another goroutine solves on the same chain concurrently
// — the attribution behind every per-call pass count a caller reads off
// its own scope (gsuserve's curve `solves` field, the core budget tests).
func TestScopedSolveCountsUnpollutedByConcurrentSolves(t *testing.T) {
	c := twoState(t, 1.5, 0.5)
	pi0, _ := c.PointMass(0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := c.Transient(pi0, 0.5); err != nil {
					return
				}
			}
		}
	}()

	ctx, scope := obs.WithScope(context.Background())
	const passes = 20
	for i := 0; i < passes; i++ {
		if _, err := c.TransientContext(ctx, pi0, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	if got := scope.Counter(obs.CtrSolvePasses); got != passes {
		t.Fatalf("scoped passes = %d, want exactly %d despite concurrent background solves", got, passes)
	}
}
