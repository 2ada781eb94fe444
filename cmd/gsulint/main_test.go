package main

import (
	"strings"
	"testing"
)

func TestListRules(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != exitClean {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, exitClean, errOut.String())
	}
	for _, rule := range []string{
		"errcheck", "floateq", "libpanic", "ctxflow", "probrange",
		"lockbalance", "golifetime", "exhaustive",
	} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, out.String())
		}
	}
}

func TestFindingsExitCode(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/lint/testdata/src/floateqfix"}, &out, &errOut)
	if code != exitFindings {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, exitFindings, errOut.String())
	}
	if !strings.Contains(out.String(), "floateq") {
		t.Errorf("expected floateq findings, got:\n%s", out.String())
	}
}

func TestCleanPackageExitCode(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/lint"}, &out, &errOut)
	if code != exitClean {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitClean, out.String(), errOut.String())
	}
}

func TestRuleSelection(t *testing.T) {
	var out, errOut strings.Builder
	// Only the errcheck rule: the floateq fixture must come back clean.
	code := run([]string{"-rules", "errcheck", "../../internal/lint/testdata/src/floateqfix"}, &out, &errOut)
	if code != exitClean {
		t.Fatalf("exit %d, want %d (stdout: %s)", code, exitClean, out.String())
	}
	if code := run([]string{"-rules", "nosuch"}, &out, &errOut); code != exitError {
		t.Fatalf("unknown rule: exit %d, want %d", code, exitError)
	}
}
