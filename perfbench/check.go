package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/template"
	"guardedop/internal/uncertainty"
)

// relTol is the relative tolerance of the repository's engine-equivalence
// suites; a recomputed answer must agree with the timed one to it.
const relTol = 1e-9

// scenarioRelTol is the tolerance of the scenario check. On generated
// N=4 chains the curve engine and the point-wise path disagree by up to
// 1.6e-9 relative (11 of 80 seeds had a sampled point beyond 1e-9, all
// at N=4), and these chains have no closed form to arbitrate, so the
// scenario check holds them to what the two numeric paths achieve: 5e-9,
// about three times the worst disagreement measured. The README records
// the finding.
const scenarioRelTol = 5e-9

// checkSeed derives the seed that picks which answers are recomputed, so
// the sample is fixed by the run's seed but independent of its inputs.
func checkSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

// near reports whether a and b agree to relTol.
func near(a, b float64) bool { return nearTol(a, b, relTol) }

// nearTol reports whether a and b agree to the relative tolerance tol.
func nearTol(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// mismatch prints a failed comparison and returns 1, for counting.
func mismatch(cfg config, format string, args ...any) int {
	fmt.Fprintf(cfg.log, "WRONG: "+format+"\n", args...)
	return 1
}

// pointwise evaluates Y at one φ through core's point-wise
// EvaluateContext: with the parametric layer off it is a different code
// path from the curve engine and from the closed forms, which is what
// makes it a check.
func pointwise(a *core.Analyzer, phi float64) (float64, error) {
	r, err := a.EvaluateContext(context.Background(), phi)
	return r.Y, err
}

// refPath is one independent evaluation path an answer is checked
// against.
type refPath struct {
	name string
	eval func() (float64, error)
}

// verify checks got against independent paths in order and returns 1
// when none of them agrees to relTol. Every path that disagrees is
// reported on a NOTE line, so a disagreement between the program's own
// paths shows in the output even when another path confirms the answer.
func verify(cfg config, label string, got float64, paths ...refPath) int {
	return verifyTol(cfg, label, got, relTol, paths...)
}

// verifyTol is verify at the relative tolerance tol.
func verifyTol(cfg config, label string, got, tol float64, paths ...refPath) int {
	for _, p := range paths {
		want, err := p.eval()
		if err == nil && nearTol(got, want, tol) {
			return 0
		}
		fmt.Fprintf(cfg.log, "NOTE: %s: %.17g, %s gives %.17g (relative difference %.3g, err %v)\n",
			label, got, p.name, want, math.Abs(got-want)/math.Abs(want), err)
	}
	return mismatch(cfg, "%s: %.17g, and no independent path agrees to %g", label, got, tol)
}

// fixedPath is a path whose value was computed up front.
func fixedPath(name string, v float64, err error) refPath {
	return refPath{name, func() (float64, error) { return v, err }}
}

var errNoClosedForm = errors.New("no closed form for this parameter set")

// refs builds, on first use, the analyzers of the independent paths for
// one parameter set: core's point-wise path with the parametric layer
// off, and the closed forms where the set lies in their domain.
type refs struct {
	p        mdcd.Params
	off, par *core.Analyzer
}

func (r *refs) pointwise(phi float64) refPath {
	return refPath{"the point-wise path", func() (float64, error) {
		if r.off == nil {
			a, err := core.NewAnalyzerWithOptions(r.p, core.Options{Parametric: core.ParametricOff})
			if err != nil {
				return math.NaN(), err
			}
			r.off = a
		}
		return pointwise(r.off, phi)
	}}
}

func (r *refs) closedForm(phi float64) refPath {
	return refPath{"the closed form", func() (float64, error) {
		if r.par == nil {
			a, err := core.NewAnalyzerWithOptions(r.p, core.Options{Parametric: core.ParametricAuto})
			if err != nil {
				return math.NaN(), err
			}
			r.par = a
		}
		if !r.par.Parametric() {
			return math.NaN(), errNoClosedForm
		}
		return pointwise(r.par, phi)
	}}
}

// curveSane checks what must hold for every curve: the requested number
// of finite points and the boundary identity Y(0) = 1.
func curveSane(cfg config, label string, curve []core.Result, points int) int {
	if len(curve) != points {
		return mismatch(cfg, "%s: %d points, want %d", label, len(curve), points)
	}
	for _, r := range curve {
		if math.IsNaN(r.Y) || math.IsInf(r.Y, 0) {
			return mismatch(cfg, "%s: Y(%g) = %g", label, r.Phi, r.Y)
		}
	}
	if curve[0].Phi != 0 || !near(curve[0].Y, 1) {
		return mismatch(cfg, "%s: Y(%g) = %.17g, want Y(0) = 1", label, curve[0].Phi, curve[0].Y)
	}
	return 0
}

// argmax returns the index of the curve's largest Y.
func argmax(curve []core.Result) int {
	best := 0
	for i, r := range curve {
		if r.Y > curve[best].Y {
			best = i
		}
	}
	return best
}

// sampleIdx picks the curve indices a check recomputes: the first point
// past φ=0, the last, the curve's maximum and one at random.
func sampleIdx(rng *rand.Rand, curve []core.Result) []int {
	return []int{1, len(curve) - 1, argmax(curve), 1 + rng.Intn(len(curve)-1)}
}

// checkStudy checks every study answer for sanity, recomputes one op of
// each grid size point-wise, and checks the paper's figure curves
// against the experiment goldens.
func checkStudy(cfg config, inputs []studyInput, grids [][]float64, answers []studyAnswer) (int, error) {
	rng := checkSeed(cfg.seed)
	wrong := 0
	sampled := map[int]bool{}
	for _, i := range rng.Perm(len(inputs)) {
		in, ans := inputs[i], answers[i]
		if ans.curve == nil {
			continue // the op failed and was counted as failed
		}
		label := fmt.Sprintf("study op %d", i)
		if w := curveSane(cfg, label, ans.curve, len(grids[i])); w > 0 {
			wrong += w
			continue
		}
		maxY := ans.curve[argmax(ans.curve)].Y
		if ans.best.Y < maxY*(1-1e-6) {
			wrong += mismatch(cfg, "%s: optimum Y*=%.17g below the grid maximum %.17g", label, ans.best.Y, maxY)
		}
		if sampled[in.Points] {
			continue
		}
		sampled[in.Points] = true
		// The curve engine's answers are checked against the point-wise
		// path, and against the closed forms where the two numeric paths
		// disagree.
		ref := &refs{p: in.Params}
		for _, k := range sampleIdx(rng, ans.curve) {
			r := ans.curve[k]
			wrong += verify(cfg, fmt.Sprintf("%s Y(%g)", label, r.Phi), r.Y, ref.pointwise(r.Phi), ref.closedForm(r.Phi))
		}
		wrong += verify(cfg, fmt.Sprintf("%s optimum Y(%g)", label, ans.best.Phi), ans.best.Y,
			ref.pointwise(ans.best.Phi), ref.closedForm(ans.best.Phi))
	}
	w, err := checkGoldens(cfg)
	return wrong + w, err
}

// goldenSets lists, per experiment golden file, the parameter set of each
// Y column in column order: the paper's Figs. 9–12 and the c ≤ 0.20
// text experiments.
func goldenSets() map[string][]mdcd.Params {
	base := mdcd.DefaultParams()
	with := func(f func(*mdcd.Params)) mdcd.Params { p := base; f(&p); return p }
	slow := func(c float64) mdcd.Params {
		return with(func(p *mdcd.Params) { p.Alpha, p.Beta, p.Coverage = 2500, 2500, c })
	}
	return map[string][]mdcd.Params{
		"fig9":   {base, with(func(p *mdcd.Params) { p.MuNew = 0.5e-4 })},
		"fig10":  {base, slow(0.95)},
		"fig11":  {slow(0.95), slow(0.75), slow(0.50)},
		"fig11x": {slow(0.20), slow(0.10)},
		"fig12": {
			with(func(p *mdcd.Params) { p.Theta = 5000 }),
			with(func(p *mdcd.Params) { p.Theta, p.MuNew = 5000, 0.5e-4 }),
		},
	}
}

// goldenDir is where the experiment goldens live, relative to the
// repository root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata")

// checkGoldens computes each paper curve through the study's own op path
// (11-point grid) and compares it with the committed golden CSV, which
// holds Y to 10 significant digits.
func checkGoldens(cfg config) (int, error) {
	wrong := 0
	for id, sets := range goldenSets() {
		f, err := os.Open(filepath.Join(goldenDir, id+".golden.csv"))
		if err != nil {
			return 0, fmt.Errorf("opening golden: %w", err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("reading golden %s: %w", id, err)
		}
		if len(rows) != 12 || len(rows[0]) != len(sets)+1 {
			return 0, fmt.Errorf("golden %s: %d rows of %d columns, want 12 of %d", id, len(rows), len(rows[0]), len(sets)+1)
		}
		for c, p := range sets {
			ans, err := studyOp(context.Background(), p, core.SweepGrid(p.Theta, 10))
			if err != nil {
				wrong += mismatch(cfg, "golden %s %s: %v", id, rows[0][c+1], err)
				continue
			}
			for r, res := range ans.curve {
				phi, err1 := strconv.ParseFloat(rows[r+1][0], 64)
				want, err2 := strconv.ParseFloat(rows[r+1][c+1], 64)
				if err1 != nil || err2 != nil {
					return 0, fmt.Errorf("golden %s row %d: unparsable %q", id, r+1, rows[r+1])
				}
				// The golden rounds to 10 significant digits: allow half a
				// unit of that digit on top of the tolerance.
				halfUnit := 0.5 * math.Pow(10, math.Floor(math.Log10(math.Abs(want)))-9)
				if phi != res.Phi || math.Abs(res.Y-want) > relTol*math.Abs(want)+halfUnit {
					wrong += mismatch(cfg, "golden %s %s: Y(%g) = %.17g, golden Y(%g) = %s", id, rows[0][c+1], res.Phi, res.Y, phi, rows[r+1][c+1])
				}
			}
		}
	}
	return wrong, nil
}

// checkPropagate checks that every propagation kept all its draws and
// recomputes three draws of two propagations with the parametric layer
// off. The draws were answered from the closed forms; their curve maximum
// Y*, and Y at the reported φ*, are checked against the point-wise path
// and, where that disagrees, the numeric curve engine.
func checkPropagate(cfg config, inputs []propagateInput, answers []*uncertainty.Propagation) (int, error) {
	rng := checkSeed(cfg.seed)
	wrong := 0
	for i, ans := range answers {
		if ans != nil && (ans.SamplesUsed != ans.SamplesRequested || math.IsNaN(ans.RobustEY)) {
			wrong += mismatch(cfg, "propagate op %d: incomplete propagation", i)
		}
	}
	for _, i := range rng.Perm(len(answers))[:min(2, len(answers))] {
		ans := answers[i]
		if ans == nil {
			continue
		}
		grid := core.SweepGrid(inputs[i].Params.Theta, propagateGrid)
		for _, k := range rng.Perm(len(ans.Draws))[:min(3, len(ans.Draws))] {
			d := ans.Draws[k]
			p := inputs[i].Params
			p.MuNew = d.Mu
			label := fmt.Sprintf("propagate op %d draw %d", i, d.Index)
			a, err := core.NewAnalyzerWithOptions(p, core.Options{Parametric: core.ParametricOff})
			if err != nil {
				wrong += mismatch(cfg, "%s: rebuilding analyzer: %v", label, err)
				continue
			}
			var pw, eng []float64
			pwErr := error(nil)
			for _, phi := range grid {
				y, err := pointwise(a, phi)
				if err != nil {
					pwErr = err
					break
				}
				pw = append(pw, y)
			}
			c, engErr := curve(context.Background(), a, grid)
			for _, r := range c {
				eng = append(eng, r.Y)
			}
			star := slices.Index(grid, d.PhiStar)
			maxOf := func(name string, ys []float64, err error) refPath {
				return fixedPath(name, slices.Max(append(ys, math.Inf(-1))), err)
			}
			atStar := func(name string, ys []float64, err error) refPath {
				if star < 0 || star >= len(ys) {
					return fixedPath(name, math.NaN(), fmt.Errorf("φ*=%g is not a grid point", d.PhiStar))
				}
				return fixedPath(name, ys[star], err)
			}
			wrong += verify(cfg, label+" Y*", d.MaxY,
				maxOf("the point-wise path", pw, pwErr), maxOf("the curve engine", eng, engErr))
			wrong += verify(cfg, fmt.Sprintf("%s Y(φ*=%g)", label, d.PhiStar), d.MaxY,
				atStar("the point-wise path", pw, pwErr), atStar("the curve engine", eng, engErr))
		}
	}
	return wrong, nil
}

// checkScenario checks every scenario curve for sanity and recomputes one
// op per node count point-wise on a freshly built analyzer.
func checkScenario(cfg config, specs []*template.Spec, answers [][]core.Result) (int, error) {
	rng := checkSeed(cfg.seed)
	wrong := 0
	sampled := map[int]bool{}
	for _, i := range rng.Perm(len(specs)) {
		label := fmt.Sprintf("scenario op %d (%s)", i, specs[i].Name)
		c := answers[i]
		if c == nil {
			continue // the op failed and was counted as failed
		}
		if w := curveSane(cfg, label, c, scenarioPoints); w > 0 {
			wrong += w
			continue
		}
		if n := len(specs[i].Nodes); !sampled[n] {
			sampled[n] = true
			_, a, err := scenarioAnalyzer(context.Background(), specs[i])
			if err != nil {
				wrong += mismatch(cfg, "%s: rebuilding analyzer: %v", label, err)
				continue
			}
			// Generated chains this large have no closed form, so the
			// point-wise path is the one independent check.
			for _, k := range sampleIdx(rng, c)[:3] {
				phi := c[k].Phi
				wrong += verifyTol(cfg, fmt.Sprintf("%s Y(%g)", label, phi), c[k].Y, scenarioRelTol,
					refPath{"the point-wise path", func() (float64, error) { return pointwise(a, phi) }})
			}
		}
	}
	return wrong, nil
}
