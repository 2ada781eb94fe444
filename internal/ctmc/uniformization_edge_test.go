package ctmc

import (
	"errors"
	"testing"
	"time"

	"guardedop/internal/robust"
)

// TestPoissonWindowExtremeMean pins the fail-fast behavior at extreme
// qt: a mean of 1e18 used to run ~1e9 recurrence iterations growing an
// unbounded weights slice before the old mean+1e9 guard tripped. The
// width check must now reject it immediately.
func TestPoissonWindowExtremeMean(t *testing.T) {
	start := time.Now()
	_, err := newPoissonWindow(1e18, 1e-12)
	if !errors.Is(err, robust.ErrNotConverged) {
		t.Fatalf("mean 1e18: got %v, want ErrNotConverged", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("extreme mean took %v to reject; the guard must fail fast", elapsed)
	}

	// End to end through the solver entry point: an absurd q·t surfaces
	// the same typed error instead of grinding.
	c := twoState(t, 1e12, 1e12)
	pi0, _ := c.PointMass(0)
	if _, err := c.TransientUniformization(pi0, 1e6); !errors.Is(err, robust.ErrNotConverged) {
		t.Fatalf("qt=1e18 solve: got %v, want ErrNotConverged", err)
	}

	// Means inside the cap still build sane windows.
	win, err := newPoissonWindow(2e5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if win.Right <= win.Left {
		t.Fatalf("bad window [%d, %d]", win.Left, win.Right)
	}
}
