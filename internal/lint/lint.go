// Package lint is the repository's domain-specific static analyzer.
//
// It is built on the standard library only (go/parser, go/ast, go/types —
// no golang.org/x/tools dependency): packages are loaded with export data
// produced by `go list -export`, type-checked with the gc importer, and
// each registered Pass walks the typed syntax trees reporting
// position-accurate diagnostics.
//
// The rules encode correctness discipline specific to a numerical
// performability toolkit: solver errors must never be dropped, floating
// point must not be compared with ==, library packages must not panic
// undocumented, contexts must flow to callees, and probability/rate
// literals handed to model constructors must be sane. See
// docs/STATIC_ANALYSIS.md for the rule catalog.
//
// Diagnostics can be suppressed with a comment on (or immediately above)
// the offending line:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; suppressions without one are themselves
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unit is one type-checked package presented to the passes.
type Unit struct {
	// ImportPath is the package's import path (e.g. guardedop/internal/ctmc).
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// IsCommand reports whether the package is a main package; several
	// rules relax for commands (a CLI may panic, for instance).
	IsCommand bool
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass is one lint rule. Passes must be stateless: Run may be called for
// many units in any order.
type Pass interface {
	// Name is the rule identifier used in output and //lint:ignore.
	Name() string
	// Doc is a one-line description of the rule.
	Doc() string
	// Run reports the rule's findings for one package.
	Run(u *Unit) []Diagnostic
}

// AllPasses returns the full registered rule set, sorted by name.
func AllPasses() []Pass {
	passes := []Pass{
		ErrCheckPass{},
		FloatEqPass{},
		LibPanicPass{},
		CtxFlowPass{},
		ProbRangePass{},
		LockBalancePass{},
		GoLifetimePass{},
		ExhaustivePass{},
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Name() < passes[j].Name() })
	return passes
}

// SelectPasses resolves a comma-separated rule list ("" or "all" means
// every rule).
func SelectPasses(names string) ([]Pass, error) {
	all := AllPasses()
	if names == "" || names == "all" {
		return all, nil
	}
	byName := make(map[string]Pass, len(all))
	for _, p := range all {
		byName[p.Name()] = p
	}
	var out []Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", n, ruleNames(all))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty rule selection")
	}
	return out, nil
}

func ruleNames(passes []Pass) string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.Name()
	}
	return strings.Join(names, ", ")
}

// Run applies the passes to every unit, honours //lint:ignore suppressions,
// and returns the surviving diagnostics sorted by position.
func Run(units []*Unit, passes []Pass) []Diagnostic {
	var out []Diagnostic
	for _, u := range units {
		sup := collectSuppressions(u)
		for _, p := range passes {
			for _, d := range p.Run(u) {
				if sup.covers(d) {
					continue
				}
				out = append(out, d)
			}
		}
		out = append(out, sup.malformed...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// enclosingFuncDecl returns the innermost top-level function declaration
// covering pos, or nil for package-level positions.
func enclosingFuncDecl(u *Unit, pos token.Pos) *ast.FuncDecl {
	for _, f := range u.Files {
		if f.Pos() <= pos && pos < f.End() {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
					return fd
				}
			}
		}
	}
	return nil
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(u *Unit, pos token.Pos) bool {
	return strings.HasSuffix(u.Fset.Position(pos).Filename, "_test.go")
}

// diag builds a Diagnostic at pos.
func diag(u *Unit, pos token.Pos, rule, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: u.Fset.Position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)}
}
