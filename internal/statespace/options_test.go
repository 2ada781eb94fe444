package statespace

import (
	"errors"
	"testing"

	"guardedop/internal/robust"
)

// TestOptionsRejectNegative pins the withDefaults validation: negative
// bounds are caller bugs (a templated scenario spec passing garbage
// limits), not a request for "no limit", and must fail with a typed
// invariant error instead of being silently accepted.
func TestOptionsRejectNegative(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{name: "zero-defaults", opts: Options{}, ok: true},
		{name: "explicit", opts: Options{MaxStates: 10}, ok: true},
		{name: "negative-max-states", opts: Options{MaxStates: -1}, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.opts.withDefaults()
			if tc.ok {
				if err != nil {
					t.Fatalf("withDefaults(%+v) = %v, want nil", tc.opts, err)
				}
				if got.MaxStates <= 0 {
					t.Fatalf("withDefaults(%+v) left a bound unset: %+v", tc.opts, got)
				}
				return
			}
			if err == nil {
				t.Fatalf("withDefaults(%+v) accepted negative option", tc.opts)
			}
			if !errors.Is(err, robust.ErrInvariant) {
				t.Fatalf("withDefaults(%+v) error %v is not robust.ErrInvariant", tc.opts, err)
			}
		})
	}
}

// TestGenerateRejectsNegativeOptions checks the validation is actually
// reached through the public entry point.
func TestGenerateRejectsNegativeOptions(t *testing.T) {
	m, _, _ := cycleModel(1, 1)
	if _, err := Generate(m, Options{MaxStates: -5}); !errors.Is(err, robust.ErrInvariant) {
		t.Fatalf("Generate with negative MaxStates: err = %v, want robust.ErrInvariant", err)
	}
}

// TestStateSpaceTooLargeTyped pins the overflow error's type and class:
// it must surface as ErrStateSpaceTooLarge and classify as an invariant
// violation so the serving layer maps it to 422.
func TestStateSpaceTooLargeTyped(t *testing.T) {
	m, _, _ := cycleModel(1, 1)
	_, err := Generate(m, Options{MaxStates: 1})
	if err == nil {
		t.Fatal("Generate with MaxStates=1 on a 2-state model succeeded")
	}
	if !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("err = %v, want ErrStateSpaceTooLarge", err)
	}
	if !errors.Is(err, robust.ErrInvariant) {
		t.Fatalf("err = %v does not wrap robust.ErrInvariant", err)
	}
	if cls := robust.ErrorClass(err); cls != robust.ClassInvariant {
		t.Fatalf("ErrorClass = %v, want %v", cls, robust.ClassInvariant)
	}
}
