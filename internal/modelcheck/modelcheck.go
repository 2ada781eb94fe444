// Package modelcheck statically verifies translated reward models before
// they are solved.
//
// The successive-translation approach is only sound if every intermediate
// artifact is well-formed: the SAN-to-CTMC translation must produce a
// valid generator (rows summing to zero, non-negative off-diagonal rates),
// the reachability structure must match the measures asked of it
// (absorbing states reachable for first-passage quantities, a single
// closed communicating class for steady-state quantities), and the reward
// structures must keep Y(φ) an expectation ratio (finite rates within
// their documented bounds — the preconditions of the paper's Eq. 1).
//
// ctmc.New already rejects malformed generators at construction time;
// modelcheck re-derives the same properties independently from the stored
// CSR — plus the structural properties ctmc.New cannot see — so a bug in
// any translation stage (or a chain assembled by a future code path that
// bypasses New) is caught before it becomes a plausible-looking number.
package modelcheck

import (
	"fmt"
	"math"

	"guardedop/internal/statespace"
)

// Severity grades an issue.
type Severity int

const (
	// SevWarning marks a smell that does not invalidate the solve.
	SevWarning Severity = iota
	// SevError marks a property violation that makes solves unsound.
	SevError
)

// String renders the severity.
func (s Severity) String() string {
	if s == SevError {
		return "ERROR"
	}
	return "WARNING"
}

// Issue is one finding of the verifier.
type Issue struct {
	// Check identifies the property, e.g. "generator-row-sum".
	Check    string
	Severity Severity
	Detail   string
}

// String renders the issue on one line.
func (i Issue) String() string { return fmt.Sprintf("%s %s: %s", i.Severity, i.Check, i.Detail) }

// Options tunes the verifier. The zero value applies the defaults.
type Options struct {
	// RowSumTol bounds |Σ_j Q_ij| relative to max(1, |Q_ii|)
	// (default 1e-9, matching ctmc.New).
	RowSumTol float64
	// MaxIssuesPerCheck caps repeated findings of one check so a
	// completely broken model stays readable (default 5; the report
	// records how many were elided).
	MaxIssuesPerCheck int
}

func (o Options) withDefaults() Options {
	if o.RowSumTol == 0 {
		o.RowSumTol = 1e-9
	}
	if o.MaxIssuesPerCheck == 0 {
		o.MaxIssuesPerCheck = 5
	}
	return o
}

// CheckSpace verifies a generated state space: generator validity,
// initial-distribution sanity, reachability, labelled-transition
// consistency, and absorbing/ergodic structure. name labels the report.
func CheckSpace(name string, sp *statespace.Space, opts Options) *Report {
	opts = opts.withDefaults()
	r := newReport(name, opts)
	if sp == nil || sp.Chain == nil {
		r.add(Issue{Check: "space", Severity: SevError, Detail: "nil state space"})
		return r
	}
	n := sp.Chain.NumStates()
	r.States = n
	r.Transitions = len(sp.Transitions)
	absorbing := sp.Chain.AbsorbingStates()
	r.Absorbing = len(absorbing)

	r.checkGenerator(sp)
	r.checkInitial(sp)
	r.checkTransitions(sp)
	reach := r.checkReachability(sp)
	r.checkClasses(sp, absorbing, reach)
	return r
}

// checkGenerator re-verifies the CTMC generator from its stored CSR.
func (r *Report) checkGenerator(sp *statespace.Space) {
	r.ran("generator-shape", "generator-finite", "generator-offdiag", "generator-diag", "generator-row-sum")
	gen := sp.Chain.Generator()
	n := sp.Chain.NumStates()
	if gen.Rows() != n || gen.Cols() != n {
		r.add(Issue{Check: "generator-shape", Severity: SevError,
			Detail: fmt.Sprintf("generator is %dx%d for %d states", gen.Rows(), gen.Cols(), n)})
		return
	}
	for i := 0; i < n; i++ {
		sum, diag := 0.0, 0.0
		gen.Row(i, func(j int, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.add(Issue{Check: "generator-finite", Severity: SevError,
					Detail: fmt.Sprintf("Q[%d,%d] = %g", i, j, v)})
			}
			if i == j {
				diag = v
			} else if v < 0 {
				r.add(Issue{Check: "generator-offdiag", Severity: SevError,
					Detail: fmt.Sprintf("negative off-diagonal rate Q[%d,%d] = %g", i, j, v)})
			}
			sum += v
		})
		if diag > 0 {
			r.add(Issue{Check: "generator-diag", Severity: SevError,
				Detail: fmt.Sprintf("positive diagonal Q[%d,%d] = %g", i, i, diag)})
		}
		if tol := r.opts.RowSumTol * math.Max(1, math.Abs(diag)); math.Abs(sum) > tol {
			r.add(Issue{Check: "generator-row-sum", Severity: SevError,
				Detail: fmt.Sprintf("row %d sums to %g, want 0 (±%g)", i, sum, tol)})
		}
	}
}

// checkInitial verifies the initial distribution.
func (r *Report) checkInitial(sp *statespace.Space) {
	r.ran("initial-length", "initial-entry", "initial-mass")
	n := sp.Chain.NumStates()
	if len(sp.Initial) != n {
		r.add(Issue{Check: "initial-length", Severity: SevError,
			Detail: fmt.Sprintf("initial distribution has length %d, want %d", len(sp.Initial), n)})
		return
	}
	sum := 0.0
	for i, p := range sp.Initial {
		if math.IsNaN(p) || p < 0 || p > 1 {
			r.add(Issue{Check: "initial-entry", Severity: SevError,
				Detail: fmt.Sprintf("initial[%d] = %g outside [0, 1]", i, p)})
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		r.add(Issue{Check: "initial-mass", Severity: SevError,
			Detail: fmt.Sprintf("initial distribution sums to %g, want 1", sum)})
	}
}

// checkTransitions verifies the labelled transition list against the
// generator: endpoints in range, non-negative finite rates, and per-pair
// aggregate agreement with the generator's off-diagonal entries (dangling
// or phantom transitions break impulse rewards even when state
// probabilities are right).
func (r *Report) checkTransitions(sp *statespace.Space) {
	r.ran("transition-range", "transition-rate", "transition-consistency")
	n := sp.Chain.NumStates()
	agg := make(map[[2]int]float64, len(sp.Transitions))
	for _, tr := range sp.Transitions {
		if tr.From < 0 || tr.From >= n || tr.To < 0 || tr.To >= n {
			r.add(Issue{Check: "transition-range", Severity: SevError,
				Detail: fmt.Sprintf("transition %q %d->%d outside [0,%d)", tr.Activity, tr.From, tr.To, n)})
			continue
		}
		if tr.Rate < 0 || math.IsNaN(tr.Rate) || math.IsInf(tr.Rate, 0) {
			r.add(Issue{Check: "transition-rate", Severity: SevError,
				Detail: fmt.Sprintf("transition %q %d->%d has rate %g", tr.Activity, tr.From, tr.To, tr.Rate)})
			continue
		}
		if tr.From != tr.To { // self-loops are deliberately kept out of the generator
			agg[[2]int{tr.From, tr.To}] += tr.Rate
		}
	}
	gen := sp.Chain.Generator()
	for i := 0; i < n; i++ {
		gen.Row(i, func(j int, v float64) {
			if i == j {
				return
			}
			got := agg[[2]int{i, j}]
			if math.Abs(got-v) > 1e-9*math.Max(1, math.Abs(v)) {
				r.add(Issue{Check: "transition-consistency", Severity: SevError,
					Detail: fmt.Sprintf("labelled rate %d->%d is %g, generator has %g", i, j, got, v)})
			}
			delete(agg, [2]int{i, j})
		})
	}
	for pair, rate := range agg {
		if rate != 0 {
			r.add(Issue{Check: "transition-consistency", Severity: SevError,
				Detail: fmt.Sprintf("labelled transition %d->%d (rate %g) missing from generator", pair[0], pair[1], rate)})
		}
	}
}

// checkReachability flags states unreachable from the initial support and
// returns the reachable set.
func (r *Report) checkReachability(sp *statespace.Space) []bool {
	r.ran("unreachable-state")
	n := sp.Chain.NumStates()
	succ := adjacency(sp, false)
	reach := make([]bool, n)
	var queue []int
	for i, p := range sp.Initial {
		if i < n && p > 0 && !reach[i] {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range succ[s] {
			if !reach[t] {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !reach[i] {
			r.add(Issue{Check: "unreachable-state", Severity: SevError,
				Detail: fmt.Sprintf("state %d (%s) carries no probability from the initial distribution", i, stateLabel(sp, i))})
		}
	}
	return reach
}

// checkClasses verifies the communicating structure against the measures
// the model supports. With absorbing states present (RMGd/RMNd-style
// first-passage models), every reachable state must reach an absorbing
// state or the absorption-time measures diverge. With none (RMGp-style
// steady-state models), the reachable chain must be a single communicating
// class or the steady-state distribution is not unique.
func (r *Report) checkClasses(sp *statespace.Space, absorbing []int, reach []bool) {
	n := sp.Chain.NumStates()
	if len(absorbing) > 0 {
		r.ran("absorbing-unreachable")
		pred := adjacency(sp, true)
		canAbsorb := make([]bool, n)
		queue := append([]int(nil), absorbing...)
		for _, a := range absorbing {
			canAbsorb[a] = true
		}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, t := range pred[s] {
				if !canAbsorb[t] {
					canAbsorb[t] = true
					queue = append(queue, t)
				}
			}
		}
		for i := 0; i < n; i++ {
			if reach[i] && !canAbsorb[i] {
				r.add(Issue{Check: "absorbing-unreachable", Severity: SevError,
					Detail: fmt.Sprintf("state %d (%s) cannot reach any absorbing state; first-passage measures diverge", i, stateLabel(sp, i))})
			}
		}
		return
	}
	// No absorbing states: require one communicating class over the
	// reachable states (forward- and backward-reachability from any
	// reachable seed must agree).
	r.ran("not-irreducible")
	seed := -1
	for i := 0; i < n; i++ {
		if reach[i] {
			seed = i
			break
		}
	}
	if seed < 0 {
		return // reachability check already reported the empty support
	}
	fwd := closure(adjacency(sp, false), seed)
	bwd := closure(adjacency(sp, true), seed)
	for i := 0; i < n; i++ {
		if reach[i] && (!fwd[i] || !bwd[i]) {
			r.add(Issue{Check: "not-irreducible", Severity: SevError,
				Detail: fmt.Sprintf("state %d (%s) is not in the communicating class of state %d; steady-state measures are ill-defined", i, stateLabel(sp, i), seed)})
		}
	}
}

// adjacency builds successor (or predecessor) lists over positive
// generator rates.
func adjacency(sp *statespace.Space, reverse bool) [][]int {
	n := sp.Chain.NumStates()
	out := make([][]int, n)
	gen := sp.Chain.Generator()
	for i := 0; i < n; i++ {
		gen.Row(i, func(j int, v float64) {
			if i == j || v <= 0 {
				return
			}
			if reverse {
				out[j] = append(out[j], i)
			} else {
				out[i] = append(out[i], j)
			}
		})
	}
	return out
}

// closure returns the set reachable from seed over adj.
func closure(adj [][]int, seed int) []bool {
	seen := make([]bool, len(adj))
	seen[seed] = true
	queue := []int{seed}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range adj[s] {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return seen
}

// stateLabel renders a state's marking for diagnostics.
func stateLabel(sp *statespace.Space, i int) string {
	if i < 0 || i >= len(sp.States) {
		return "?"
	}
	return sp.States[i].Key()
}
