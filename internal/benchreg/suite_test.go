package benchreg

import (
	"context"
	"strings"
	"testing"
)

func TestSuiteNamesUniqueAndPinned(t *testing.T) {
	suite := Suite()
	if len(suite) < 8 {
		t.Fatalf("suite has %d benchmarks, want at least 8", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if b.Name == "" || b.Run == nil {
			t.Fatalf("malformed benchmark: %+v", b)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
	for _, want := range []string{
		"grid50.numeric", "grid50.parametric",
		"evaluate.numeric", "evaluate.parametric",
		"template.n3", "template.n8",
		"serve.coalesced", "serve.distinct",
	} {
		if !seen[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
}

// TestSuiteCountersRepeat is the acceptance check behind the whole
// observatory: running the suite twice yields byte-identical
// deterministic-counter sections, and the current build satisfies every
// pinned rule, so Compare over consecutive runs is clean.
func TestSuiteCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite execution in -short mode")
	}
	run := func() *Report {
		rep, violations, err := Run(context.Background(), Suite(), Options{Runs: 1})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(violations) != 0 {
			t.Fatalf("pinned rules violated: %v", violations)
		}
		return rep
	}
	first, second := run(), run()

	diffs := Compare(first, second, 0)
	for _, d := range diffs {
		// Wall-clock findings, gating or not, are legitimate between two
		// back-to-back runs on a noisy runner; any counter finding means a
		// benchmark's counters are not deterministic, and a missing entry
		// means the suite itself changed.
		if strings.HasPrefix(d.Kind, "counter") || d.Kind == "missing" {
			t.Errorf("back-to-back suite runs differ: %v", d)
		}
	}
}
