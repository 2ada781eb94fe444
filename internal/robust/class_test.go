package robust

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrorClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("x: %w", ErrNotConverged), "not-converged"},
		{fmt.Errorf("x: %w", ErrIllConditioned), "ill-conditioned"},
		{fmt.Errorf("x: %w", ErrNonFinite), "non-finite"},
		{fmt.Errorf("x: %w", ErrInvariant), "invariant"},
		{fmt.Errorf("x: %w", ErrPanic), "panic"},
		{fmt.Errorf("x: %w", ErrTooManyFailures), "too-many-failures"},
		// A cancellation that interrupted a transient failure counts as
		// canceled, not as the underlying class.
		{fmt.Errorf("%w: deadline (interrupted retry of: %w)", ErrCanceled, ErrNotConverged), "canceled"},
		{errors.New("unclassified"), "other"},
	}
	for _, c := range cases {
		if got := ErrorClass(c.err); string(got) != c.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
