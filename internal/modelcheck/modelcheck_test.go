package modelcheck_test

import (
	"math"
	"strings"
	"testing"

	"guardedop/internal/ctmc"
	"guardedop/internal/modelcheck"
	"guardedop/internal/reward"
	"guardedop/internal/sparse"
	"guardedop/internal/statespace"
)

// space assembles a bare state space around an (optionally malformed)
// generator, the way a broken translation stage might.
func space(t *testing.T, n int, entries [][3]float64, initial []float64, trs []statespace.Transition) *statespace.Space {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for _, e := range entries {
		coo.Add(int(e[0]), int(e[1]), e[2])
	}
	return &statespace.Space{
		Chain:       ctmc.NewUnchecked(coo),
		Initial:     initial,
		Transitions: trs,
	}
}

// hasIssue reports whether the report contains a finding of the check.
func hasIssue(rep *modelcheck.Report, check string) bool {
	for _, i := range rep.Issues {
		if i.Check == check {
			return true
		}
	}
	return false
}

func TestBrokenGeneratorRejected(t *testing.T) {
	cases := []struct {
		name    string
		entries [][3]float64
		check   string
	}{
		{
			name:    "row sum nonzero",
			entries: [][3]float64{{0, 0, -2}, {0, 1, 1}, {1, 1, 0}},
			check:   "generator-row-sum",
		},
		{
			name:    "negative off-diagonal",
			entries: [][3]float64{{0, 0, 1}, {0, 1, -1}},
			check:   "generator-offdiag",
		},
		{
			name:    "positive diagonal",
			entries: [][3]float64{{0, 0, 1}, {0, 1, -1}},
			check:   "generator-diag",
		},
		{
			name:    "non-finite rate",
			entries: [][3]float64{{0, 0, math.Inf(-1)}, {0, 1, math.Inf(1)}},
			check:   "generator-finite",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := space(t, 2, tc.entries, []float64{1, 0}, nil)
			rep := modelcheck.CheckSpace("broken", sp, modelcheck.Options{})
			if rep.OK() {
				t.Fatal("malformed generator accepted")
			}
			if !hasIssue(rep, tc.check) {
				t.Errorf("missing %s finding; got %v", tc.check, rep.Issues)
			}
			if rep.Err() == nil {
				t.Error("Err() is nil for a failing report")
			}
		})
	}
}

func TestUnreachableStateRejected(t *testing.T) {
	// 0 -> 1 (absorbing); state 2 is isolated and carries no initial mass.
	sp := space(t, 3,
		[][3]float64{{0, 0, -1}, {0, 1, 1}},
		[]float64{1, 0, 0},
		[]statespace.Transition{{From: 0, To: 1, Rate: 1, Activity: "a"}},
	)
	rep := modelcheck.CheckSpace("unreachable", sp, modelcheck.Options{})
	if !hasIssue(rep, "unreachable-state") {
		t.Errorf("missing unreachable-state finding; got %v", rep.Issues)
	}
}

func TestAbsorbingUnreachableRejected(t *testing.T) {
	// 0 <-> 1 is a recurrent pair that can never reach the absorbing
	// state 2 (which holds initial mass of its own): first-passage
	// measures to absorption diverge from states 0 and 1.
	sp := space(t, 3,
		[][3]float64{{0, 0, -1}, {0, 1, 1}, {1, 1, -1}, {1, 0, 1}},
		[]float64{0.5, 0, 0.5},
		[]statespace.Transition{
			{From: 0, To: 1, Rate: 1, Activity: "a"},
			{From: 1, To: 0, Rate: 1, Activity: "b"},
		},
	)
	rep := modelcheck.CheckSpace("trapped", sp, modelcheck.Options{})
	if !hasIssue(rep, "absorbing-unreachable") {
		t.Errorf("missing absorbing-unreachable finding; got %v", rep.Issues)
	}
}

func TestNotIrreducibleRejected(t *testing.T) {
	// No absorbing states, but 2<->3 is unreachable backwards from 0<->1
	// once entered: two communicating classes, so steady-state measures
	// are ill-defined.
	sp := space(t, 4,
		[][3]float64{
			{0, 0, -2}, {0, 1, 1}, {0, 2, 1},
			{1, 1, -1}, {1, 0, 1},
			{2, 2, -1}, {2, 3, 1},
			{3, 3, -1}, {3, 2, 1},
		},
		[]float64{1, 0, 0, 0},
		[]statespace.Transition{
			{From: 0, To: 1, Rate: 1, Activity: "a"},
			{From: 0, To: 2, Rate: 1, Activity: "a"},
			{From: 1, To: 0, Rate: 1, Activity: "b"},
			{From: 2, To: 3, Rate: 1, Activity: "c"},
			{From: 3, To: 2, Rate: 1, Activity: "d"},
		},
	)
	rep := modelcheck.CheckSpace("reducible", sp, modelcheck.Options{})
	if !hasIssue(rep, "not-irreducible") {
		t.Errorf("missing not-irreducible finding; got %v", rep.Issues)
	}
}

func TestTransitionConsistencyRejected(t *testing.T) {
	// The labelled transition list disagrees with the generator: the
	// 0->1 rate is understated and a phantom 1->0 edge is listed.
	sp := space(t, 2,
		[][3]float64{{0, 0, -2}, {0, 1, 2}},
		[]float64{1, 0},
		[]statespace.Transition{
			{From: 0, To: 1, Rate: 1.5, Activity: "a"},
			{From: 1, To: 0, Rate: 0.5, Activity: "ghost"},
		},
	)
	rep := modelcheck.CheckSpace("mislabelled", sp, modelcheck.Options{})
	if !hasIssue(rep, "transition-consistency") {
		t.Errorf("missing transition-consistency finding; got %v", rep.Issues)
	}
}

func TestBrokenInitialDistributionRejected(t *testing.T) {
	sp := space(t, 2,
		[][3]float64{{0, 0, -1}, {0, 1, 1}},
		[]float64{0.5, 0.4}, // sums to 0.9
		[]statespace.Transition{{From: 0, To: 1, Rate: 1, Activity: "a"}},
	)
	rep := modelcheck.CheckSpace("lossy", sp, modelcheck.Options{})
	if !hasIssue(rep, "initial-mass") {
		t.Errorf("missing initial-mass finding; got %v", rep.Issues)
	}
}

func TestBrokenRewardStructureRejected(t *testing.T) {
	sp := space(t, 2,
		[][3]float64{{0, 0, -1}, {0, 1, 1}},
		[]float64{1, 0},
		[]statespace.Transition{{From: 0, To: 1, Rate: 1, Activity: "a"}},
	)
	rep := modelcheck.CheckSpace("rewards", sp, modelcheck.Options{})
	if !rep.OK() {
		t.Fatalf("base space unexpectedly dirty: %v", rep.Issues)
	}

	rep.CheckRewardRates("too-hot", []float64{0, 1.5}, 0, 1)
	if !hasIssue(rep, "reward-bounds") {
		t.Errorf("missing reward-bounds finding; got %v", rep.Issues)
	}
	rep.CheckRewardRates("nan", []float64{math.NaN(), 0}, 0, 1)
	if !hasIssue(rep, "reward-finite") {
		t.Errorf("missing reward-finite finding; got %v", rep.Issues)
	}
	rep.CheckRewardRates("short", []float64{1}, 0, 1)
	if !hasIssue(rep, "reward-length") {
		t.Errorf("missing reward-length finding; got %v", rep.Issues)
	}
	rep.CheckImpulses("negative", reward.NewImpulseStructure().Add("a", -1))
	if !hasIssue(rep, "impulse-negative") {
		t.Errorf("missing impulse-negative finding; got %v", rep.Issues)
	}
	rep.CheckImpulses("inf", reward.NewImpulseStructure().Add("a", math.Inf(1)))
	if !hasIssue(rep, "impulse-finite") {
		t.Errorf("missing impulse-finite finding; got %v", rep.Issues)
	}
}

func TestIssueCapKeepsReportReadable(t *testing.T) {
	// A 64-state generator with every row summing to 1 produces 64
	// row-sum findings; the default cap keeps 5 and counts the rest.
	n := 64
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	sp := &statespace.Space{Chain: ctmc.NewUnchecked(coo), Initial: make([]float64, n)}
	sp.Initial[0] = 1
	rep := modelcheck.CheckSpace("noisy", sp, modelcheck.Options{})
	count := 0
	for _, i := range rep.Issues {
		if i.Check == "generator-row-sum" {
			count++
		}
	}
	if count != 5 {
		t.Errorf("got %d row-sum findings, want capped 5", count)
	}
	if rep.Elided == 0 {
		t.Error("elided count not recorded")
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "further findings") {
		t.Errorf("Err() should mention elided findings: %v", err)
	}
}

func TestCountersReportFindingsElisionsAndCleanChecks(t *testing.T) {
	// Same over-cap generator as the elision test: 64 row-sum findings
	// against a cap of 5.
	n := 64
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	sp := &statespace.Space{Chain: ctmc.NewUnchecked(coo), Initial: make([]float64, n)}
	sp.Initial[0] = 1
	rep := modelcheck.CheckSpace("noisy", sp, modelcheck.Options{})
	c := rep.Counters()
	kept := 0
	for _, i := range rep.Issues {
		if i.Check == "generator-row-sum" {
			kept++
		}
	}
	// The count covers every finding, the 59 the cap elided included.
	if got := c["generator-row-sum"]; got != 64 || got-kept != 59 {
		t.Errorf("generator-row-sum findings = %d with %d kept, want 64 with 59 elided", got, kept)
	}
	// A check that ran and found nothing still appears, with zeros: the
	// counter dump doubles as a record of verification coverage.
	clean, ok := c["generator-offdiag"]
	if !ok {
		t.Fatalf("clean check missing from counters: %v", c)
	}
	if clean != 0 {
		t.Errorf("clean check findings = %d, want 0", clean)
	}
}

func TestCleanSpacePasses(t *testing.T) {
	// A healthy absorbing birth-death chain: PASS report, nil Err, and a
	// text rendering that says so.
	sp := space(t, 3,
		[][3]float64{{0, 0, -1}, {0, 1, 1}, {1, 1, -2}, {1, 0, 1}, {1, 2, 1}},
		[]float64{1, 0, 0},
		[]statespace.Transition{
			{From: 0, To: 1, Rate: 1, Activity: "up"},
			{From: 1, To: 0, Rate: 1, Activity: "down"},
			{From: 1, To: 2, Rate: 1, Activity: "die"},
		},
	)
	rep := modelcheck.CheckSpace("clean", sp, modelcheck.Options{})
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("clean space rejected: %v", rep.Issues)
	}
	var b strings.Builder
	rep.WriteText(&b)
	if !strings.Contains(b.String(), "PASS") || !strings.Contains(b.String(), "clean") {
		t.Errorf("report rendering missing PASS/model name:\n%s", b.String())
	}
	if rep.States != 3 || rep.Absorbing != 1 {
		t.Errorf("stats: got %d states / %d absorbing, want 3 / 1", rep.States, rep.Absorbing)
	}
}
