package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads one seeded-violation package from testdata/src.
func loadFixture(t *testing.T, name string) []*Unit {
	t.Helper()
	units, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return units
}

// expectation is one "// want <rule>" marker in a fixture file.
type expectation struct {
	file string
	line int
	rule string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d: %s", filepath.Base(e.file), e.line, e.rule)
}

// wantRe matches "// want rule1 rule2 ...": one marker may expect
// several rules when a single line violates more than one.
var wantRe = regexp.MustCompile(`// want ((?:\S+ ?)+)`)

// scanWants extracts the expectations seeded in the fixture sources.
func scanWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				for _, rule := range strings.Fields(m[1]) {
					out = append(out, expectation{file: e.Name(), line: line, rule: rule})
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGoldenFixtures checks, for every rule, that the seeded violations are
// reported at exactly the expected file/line and that nothing else is.
func TestGoldenFixtures(t *testing.T) {
	fixtures := []string{
		"errcheckfix", "floateqfix", "libpanicfix", "ctxflowfix", "probrangefix",
		"lockbalancefix", "golifetimefix", "exhaustivefix",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			units := loadFixture(t, name)
			diags := Run(units, AllPasses())

			var got []expectation
			for _, d := range diags {
				got = append(got, expectation{
					file: filepath.Base(d.Pos.Filename),
					line: d.Pos.Line,
					rule: d.Rule,
				})
			}
			want := scanWants(t, filepath.Join("testdata", "src", name))
			sortExp := func(s []expectation) {
				sort.Slice(s, func(i, j int) bool {
					a, b := s[i], s[j]
					if a.file != b.file {
						return a.file < b.file
					}
					if a.line != b.line {
						return a.line < b.line
					}
					return a.rule < b.rule
				})
			}
			sortExp(got)
			sortExp(want)
			if len(want) == 0 {
				t.Fatalf("fixture %s seeds no expectations", name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestMalformedDirective checks that a //lint:ignore without a reason is
// itself reported (and, being malformed, suppresses nothing).
func TestMalformedDirective(t *testing.T) {
	units := loadFixture(t, "directivefix")
	diags := Run(units, AllPasses())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "lint-directive" || filepath.Base(d.Pos.Filename) != "directivefix.go" || d.Pos.Line != 6 {
		t.Errorf("got %v, want lint-directive at directivefix.go:6", d)
	}
}

func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("got %d passes, want 8", len(all))
	}
	two, err := SelectPasses("floateq, errcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("got %d passes, want 2", len(two))
	}
	if _, err := SelectPasses("nosuchrule"); err == nil {
		t.Fatal("unknown rule not rejected")
	}
	if _, err := SelectPasses(" , "); err == nil {
		t.Fatal("empty selection not rejected")
	}
}

// TestRuleDocs keeps every pass self-describing: names are non-empty,
// unique, and lowercase (they double as //lint:ignore keys).
func TestRuleDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range AllPasses() {
		name := p.Name()
		if name == "" || p.Doc() == "" {
			t.Errorf("pass %T lacks a name or doc", p)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
		if name != strings.ToLower(name) || strings.ContainsAny(name, " \t") {
			t.Errorf("rule name %q not a lowercase token", name)
		}
	}
}
