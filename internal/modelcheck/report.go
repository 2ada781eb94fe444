package modelcheck

import (
	"fmt"
	"io"
	"math"
)

// Report is the outcome of verifying one model.
type Report struct {
	// Model is the caller-supplied label (e.g. "RMGd").
	Model string
	// States, Transitions, Absorbing summarise the verified space.
	States      int
	Transitions int
	Absorbing   int
	// Issues are the findings, in check order.
	Issues []Issue
	// Elided counts findings dropped by the per-check cap
	// (maxIssuesPerCheck).
	Elided int

	perCheck map[string]int
}

func newReport(model string) *Report {
	return &Report{Model: model, perCheck: make(map[string]int)}
}

// add records an issue, enforcing the per-check cap.
func (r *Report) add(i Issue) {
	r.perCheck[i.Check]++
	if r.perCheck[i.Check] > maxIssuesPerCheck {
		r.Elided++
		return
	}
	r.Issues = append(r.Issues, i)
}

// ran registers checks as executed so Counters reports them with zero
// findings on a clean model — a dump that names the checks that ran is
// evidence of coverage, not just of silence.
func (r *Report) ran(checks ...string) {
	for _, c := range checks {
		if _, ok := r.perCheck[c]; !ok {
			r.perCheck[c] = 0
		}
	}
}

// Counters returns how many findings each check produced in total, keyed
// by check name — zero for a check that ran clean, and counting the
// findings the per-check cap elided from Issues. The CLI counts them into
// the run's tracer (obs.CtrModelCheckFindings), so model-verification
// health reaches the same metrics writers as solver health
// (docs/ROBUSTNESS.md).
func (r *Report) Counters() map[string]int {
	out := make(map[string]int, len(r.perCheck))
	for check, n := range r.perCheck {
		out[check] = n
	}
	return out
}

// OK reports whether no error-severity issue was found.
func (r *Report) OK() bool {
	for _, i := range r.Issues {
		if i.Severity == SevError {
			return false
		}
	}
	return true
}

// Err returns nil when the report is clean, and otherwise an error naming
// the model and its first violation (with a count of the rest).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var first *Issue
	errs := 0
	for idx := range r.Issues {
		if r.Issues[idx].Severity == SevError {
			if first == nil {
				first = &r.Issues[idx]
			}
			errs++
		}
	}
	if errs == 1 && r.Elided == 0 {
		return fmt.Errorf("modelcheck: %s: %s", r.Model, first)
	}
	return fmt.Errorf("modelcheck: %s: %s (and %d further findings)", r.Model, first, errs-1+r.Elided)
}

// WriteText renders the report.
func (r *Report) WriteText(w io.Writer) {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%-6s %s: %d states, %d transitions, %d absorbing\n",
		verdict, r.Model, r.States, r.Transitions, r.Absorbing)
	for _, i := range r.Issues {
		fmt.Fprintf(w, "  %s\n", i)
	}
	if r.Elided > 0 {
		fmt.Fprintf(w, "  (%d further findings elided)\n", r.Elided)
	}
}

// CheckRewardRates verifies a rate-reward vector over the model's states:
// every entry must be finite and lie in [lo, hi]. For the paper's
// indicator-style structures (Tables 1–2) the bounds are [0, 1], which is
// exactly the precondition keeping Y(φ) = E[W_φ]/E[W_I] an expectation
// ratio (Eq. 1): a per-state work rate above the ideal rate, or below
// zero, would let the "fraction of ideal work" leave [0, 1].
func (r *Report) CheckRewardRates(name string, rates []float64, lo, hi float64) {
	r.ran("reward-length", "reward-finite", "reward-bounds")
	if r.States > 0 && len(rates) != r.States {
		r.add(Issue{Check: "reward-length", Severity: SevError,
			Detail: fmt.Sprintf("reward %q has %d rates for %d states", name, len(rates), r.States)})
		return
	}
	for i, v := range rates {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.add(Issue{Check: "reward-finite", Severity: SevError,
				Detail: fmt.Sprintf("reward %q rate[%d] = %g", name, i, v)})
		case v < lo || v > hi:
			r.add(Issue{Check: "reward-bounds", Severity: SevError,
				Detail: fmt.Sprintf("reward %q rate[%d] = %g outside [%g, %g]", name, i, v, lo, hi)})
		}
	}
}
