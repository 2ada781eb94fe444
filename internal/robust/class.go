package robust

import "errors"

// Class identifies one class of the robustness error taxonomy — the
// stable label under which a failure is counted, reported, and mapped to
// an HTTP status. It is a named type (rather than a bare string) so the
// gsulint `exhaustive` pass can recognise switches and map literals over
// the taxonomy statically: the pass enumerates the Class constants below
// from export data and requires every one of them to appear.
//
// The empty Class is reserved for "no error" (ErrorClass(nil)); it is
// deliberately not part of the enumerated taxonomy.
type Class string

// The taxonomy. Adding a constant here is the single step that extends
// the taxonomy everywhere: ErrorClass must learn to produce it (the
// runtime table test in httpstatus_test.go checks that), and every
// exhaustive switch or map over Class — above all httpStatusByClass —
// fails the static `exhaustive` lint gate until it handles the newcomer.
const (
	// ClassPanic counts recovered programmer errors.
	ClassPanic Class = "panic"
	// ClassCanceled counts context cancellations and expired deadlines.
	ClassCanceled Class = "canceled"
	// ClassTooManyFailures counts propagations whose posterior draws
	// mostly landed in a degenerate region.
	ClassTooManyFailures Class = "too-many-failures"
	// ClassNotConverged counts solver iteration-budget exhaustion.
	ClassNotConverged Class = "not-converged"
	// ClassIllConditioned counts numerically hopeless systems.
	ClassIllConditioned Class = "ill-conditioned"
	// ClassNonFinite counts NaN/Inf contamination.
	ClassNonFinite Class = "non-finite"
	// ClassInvariant counts violated model invariants.
	ClassInvariant Class = "invariant"
	// ClassOther counts failures outside the taxonomy.
	ClassOther Class = "other"
)

// AllErrorClasses returns every class of the taxonomy, in precedence
// order (the order ErrorClass tests them, with ClassOther last). It is
// the canonical runtime enumeration: table tests range over it so that a
// class added above is exercised without touching the tests.
func AllErrorClasses() []Class {
	return []Class{
		ClassPanic,
		ClassCanceled,
		ClassTooManyFailures,
		ClassNotConverged,
		ClassIllConditioned,
		ClassNonFinite,
		ClassInvariant,
		ClassOther,
	}
}

// ErrorClass returns err's place in the robustness taxonomy, for
// counting failures by kind. Wrapped causes are honoured through
// errors.Is; an error outside the taxonomy is ClassOther, and a nil
// error is the empty Class.
func ErrorClass(err error) Class {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrPanic):
		return ClassPanic
	case errors.Is(err, ErrCanceled):
		return ClassCanceled
	case errors.Is(err, ErrTooManyFailures):
		return ClassTooManyFailures
	case errors.Is(err, ErrNotConverged):
		return ClassNotConverged
	case errors.Is(err, ErrIllConditioned):
		return ClassIllConditioned
	case errors.Is(err, ErrNonFinite):
		return ClassNonFinite
	case errors.Is(err, ErrInvariant):
		return ClassInvariant
	default:
		return ClassOther
	}
}
