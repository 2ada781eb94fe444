// Command gsueval reproduces the evaluation artefacts of the
// guarded-operation performability paper: every table and figure of its
// Section 6, plus the simulation cross-validation.
//
// Usage:
//
//	gsueval -list
//	gsueval -experiment fig9
//	gsueval -all [-keep-going] [-timeout 2m]
//	gsueval -sweep -theta 10000 -munew 1e-4 -coverage 0.95 -alpha 6000 -beta 6000
//	gsueval -scenario spec.json -points 20
//	gsueval -selfcheck
//	gsueval -modelcheck
//
// The -sweep mode evaluates Y(φ) on a custom parameter set, printing the
// curve, the optimal duration, and every constituent measure at the
// optimum — the workflow a designer would use to pick φ for their own
// system.
//
// The -scenario mode generalises -sweep beyond the paper's two-node
// system: it loads a declarative scenario spec (JSON; docs/TEMPLATES.md),
// generates and model-checks the N-node constituent models with
// internal/template, and runs the same sweep/optimize workflow on them.
//
// The -selfcheck mode is a health gate: it statically verifies the
// translated models (see -modelcheck), then runs the analyzer invariant
// suite on the given parameters (defaulting to the paper's Table 3
// baseline) plus a short simulator cross-check of the model translation.
//
// The -modelcheck mode runs only the static model verifier
// (internal/modelcheck) over the constituent models RMGd, RMGp and both
// RMNd instantiations built from the given parameters: generator
// validity, reachability and absorbing/ergodic structure, checked by the
// build step every analyzer uses before anything is solved on a model,
// plus the Table 1/2 reward-bound checks (docs/STATIC_ANALYSIS.md).
//
// Exit codes: 0 success; 1 usage or runtime error; 2 self-check or
// modelcheck failure; 3 partial success (-all -keep-going with some
// experiments failed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"guardedop/internal/core"
	"guardedop/internal/experiments"
	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/obs/pprofutil"
	"guardedop/internal/robust"
	"guardedop/internal/template"
	"guardedop/internal/textplot"
)

// Exit codes of the command, kept distinct so CI gates can tell a broken
// toolkit (2) from a broken experiment (3) from a usage error (1).
const (
	exitOK            = 0
	exitFailure       = 1
	exitSelfCheckFail = 2
	exitPartial       = 3
)

// codedError carries a specific process exit code up to main.
type codedError struct {
	code int
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// exitCode maps an error from run to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return exitFailure
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsueval:", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gsueval", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list available experiments")
		experiment  = fs.String("experiment", "", "run one experiment by id (see -list)")
		all         = fs.Bool("all", false, "run every experiment")
		outDir      = fs.String("out", "", "with -all: also write each report to <dir>/<id>.txt")
		sweepMode   = fs.Bool("sweep", false, "sweep Y(phi) for a custom parameter set")
		scenarioF   = fs.String("scenario", "", "sweep a templated N-node scenario loaded from this JSON spec file (docs/TEMPLATES.md)")
		selfcheck   = fs.Bool("selfcheck", false, "run the invariant suite and simulator cross-check as a health gate")
		modelcheck  = fs.Bool("modelcheck", false, "statically verify the translated models and exit")
		optimize    = fs.Bool("optimize", false, "with -sweep: also refine the optimal phi continuously (golden-section)")
		csvOut      = fs.Bool("csv", false, "emit CSV data instead of a text report (figure experiments and -sweep)")
		points      = fs.Int("points", 10, "number of sweep intervals covering [0, theta]")
		timeout     = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		keepGoing   = fs.Bool("keep-going", false, "skip failed experiments or sweep points and report them at the end")
		parallel    = fs.Int("parallel", 0, "worker-pool size for batch evaluation (0 = all cores, 1 = sequential); results are identical at every setting")
		metricsVal  = fs.String("metrics", "", "dump the run's counters and stage aggregates to stderr when it ends: \"text\", \"json\" or \"prom\"")
		parametricF = fs.String("parametric", "auto", "closed-form parametric fast path for -sweep: \"auto\" (numeric fallback outside the validated domain) or \"off\" (numeric engine only)")
		traceOut    = fs.String("trace", "", "write a JSON trace and run manifest to this file (spans, counters, cache stats; see docs/OBSERVABILITY.md)")
		pprofSpec   = fs.String("pprof", "", "profiling: \"cpu[=file]\", \"mem[=file]\", or a host:port to serve net/http/pprof")

		theta    = fs.Float64("theta", 10000, "time to next upgrade (hours)")
		lambda   = fs.Float64("lambda", 1200, "message-sending rate (1/h)")
		muNew    = fs.Float64("munew", 1e-4, "fault-manifestation rate of the upgraded version (1/h)")
		muOld    = fs.Float64("muold", 1e-8, "fault-manifestation rate of old versions (1/h)")
		coverage = fs.Float64("coverage", 0.95, "acceptance-test coverage c")
		pExt     = fs.Float64("pext", 0.1, "probability a message is external")
		alpha    = fs.Float64("alpha", 6000, "AT completion rate (1/h)")
		beta     = fs.Float64("beta", 6000, "checkpoint completion rate (1/h)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	switch *metricsVal {
	case "", "text", "json", "prom":
	default:
		return fmt.Errorf("-metrics must be \"text\", \"json\" or \"prom\", got %q", *metricsVal)
	}
	parametric, err := parseParametricMode(*parametricF)
	if err != nil {
		return err
	}
	if *pprofSpec != "" {
		stop, perr := pprofutil.StartPprof(*pprofSpec)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); cerr != nil && err == nil {
				err = fmt.Errorf("pprof: %w", cerr)
			}
		}()
	}

	params := mdcd.Params{
		Theta: *theta, Lambda: *lambda, MuNew: *muNew, MuOld: *muOld,
		Coverage: *coverage, PExt: *pExt, Alpha: *alpha, Beta: *beta,
	}

	// The tracer collects the span tree and counters of whatever mode runs;
	// the manifest is enriched by the mode (grid size, cache stats) and
	// written alongside the spans when the run ends, on success or failure.
	var tracer *obs.Tracer
	man := &obs.Manifest{
		Tool:    "gsueval",
		Params:  paramsMap(params),
		Workers: *parallel,
	}
	if *traceOut != "" || *metricsVal != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *traceOut != "" {
		defer func() {
			if werr := obs.WriteTraceFile(*traceOut, tracer, *man); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	if *metricsVal != "" {
		// The metrics go to stderr, keeping -csv and report output on
		// stdout machine-parseable. Modes that count nothing (-list,
		// -experiment) print an empty document.
		defer func() {
			if merr := tracer.WriteMetrics(os.Stderr, *metricsVal); merr != nil && err == nil {
				err = merr
			}
		}()
	}

	switch {
	case *list:
		rows := [][]string{{"id", "title"}}
		for _, e := range experiments.All() {
			rows = append(rows, []string{e.ID, e.Title})
		}
		fmt.Print(textplot.Table(rows))
		return nil

	case *modelcheck:
		return modelCheck(ctx, params, os.Stdout)

	case *selfcheck:
		return selfCheck(ctx, params, os.Stdout)

	case *all:
		rep, err := experiments.RunAll(ctx, os.Stdout, experiments.RunOptions{
			KeepGoing: *keepGoing,
			OutDir:    *outDir,
			Divider:   divider,
			Workers:   *parallel,
		})
		if err != nil {
			return err
		}
		if rep.Report.Failed() > 0 {
			fmt.Printf("\n%s\n", rep.Summary())
			return &codedError{
				code: exitPartial,
				err:  fmt.Errorf("completed with %d/%d experiments failed", rep.Report.Failed(), rep.Report.Total),
			}
		}
		return nil

	case *experiment != "":
		if *csvOut {
			curves, err := experiments.CurvesByFigure(*experiment)
			if err != nil {
				return fmt.Errorf("%w (-csv supports the figure experiments)", err)
			}
			return experiments.WriteCurvesCSV(os.Stdout, curves)
		}
		e, ok := experiments.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
		}
		return e.Run(os.Stdout)

	case *scenarioF != "":
		return scenarioSweep(ctx, *scenarioF, sweepConfig{
			points:     *points,
			refine:     *optimize,
			csvOut:     *csvOut,
			keepGoing:  *keepGoing,
			workers:    *parallel,
			manifest:   man,
			parametric: parametric,
		})

	case *sweepMode:
		return sweep(ctx, params, sweepConfig{
			points:     *points,
			refine:     *optimize,
			csvOut:     *csvOut,
			keepGoing:  *keepGoing,
			workers:    *parallel,
			manifest:   man,
			parametric: parametric,
		})

	default:
		fs.Usage()
		return fmt.Errorf("choose one of -list, -experiment, -all, -sweep, -scenario, -selfcheck, -modelcheck")
	}
}

const divider = "================================================================"

// paramsMap renders a parameter set as the manifest's flag-keyed map.
func paramsMap(p mdcd.Params) map[string]float64 {
	return map[string]float64{
		"theta": p.Theta, "lambda": p.Lambda, "munew": p.MuNew, "muold": p.MuOld,
		"coverage": p.Coverage, "pext": p.PExt, "alpha": p.Alpha, "beta": p.Beta,
	}
}

// parseParametricMode maps the -parametric flag value to the analyzer
// option.
func parseParametricMode(v string) (core.ParametricMode, error) {
	switch v {
	case "auto":
		return core.ParametricAuto, nil
	case "off":
		return core.ParametricOff, nil
	default:
		return 0, fmt.Errorf("-parametric must be \"auto\" or \"off\", got %q", v)
	}
}

// sweepConfig carries the sweep-mode flag values.
type sweepConfig struct {
	points     int
	refine     bool
	csvOut     bool
	keepGoing  bool
	workers    int
	manifest   *obs.Manifest
	parametric core.ParametricMode
}

func sweep(ctx context.Context, p mdcd.Params, cfg sweepConfig) error {
	a, err := core.NewAnalyzerWithOptions(p, core.Options{Parametric: cfg.parametric})
	if err != nil {
		return err
	}
	return sweepWith(ctx, a, p, cfg)
}

// scenarioSweep is the -scenario mode: generate the templated models,
// verify them, and run the standard sweep workflow on the scenario
// analyzer. template.Build model-checks the generated state spaces
// (mdcd.Generate) before anything is solved, and emits the
// template.instances / template.states counters onto the trace.
func scenarioSweep(ctx context.Context, path string, cfg sweepConfig) error {
	spec, err := template.Load(path)
	if err != nil {
		return err
	}
	inst, err := template.Build(ctx, spec)
	if err != nil {
		return err
	}
	a, err := core.NewScenarioAnalyzer(core.ScenarioModels{
		Params: inst.Params,
		Gd:     inst.Gd,
		NdNew:  inst.NdNew,
		NdOld:  inst.NdOld,
		Rhos:   inst.Rhos,
	}, core.Options{Parametric: cfg.parametric})
	if err != nil {
		return err
	}
	if cfg.manifest != nil {
		cfg.manifest.Params = paramsMap(inst.Params)
	}
	fmt.Printf("scenario %q: %d nodes, policy %s, %d generated states (Gp: %s)\n",
		spec.Name, len(spec.Nodes), spec.Policy(), inst.TotalStates, gpModeLabel(inst))
	return sweepWith(ctx, a, inst.Params, cfg)
}

// gpModeLabel describes how the overhead measures were solved.
func gpModeLabel(inst *template.Instance) string {
	if inst.GpMeanField {
		return "mean-field"
	}
	return fmt.Sprintf("joint, %d states", inst.GpStates)
}

func sweepWith(ctx context.Context, a *core.Analyzer, p mdcd.Params, cfg sweepConfig) error {
	grid := core.SweepGrid(p.Theta, cfg.points)
	if cfg.manifest != nil {
		// Enrich the run manifest before the sweep so even a failed run's
		// trace records what was attempted.
		cfg.manifest.GridPoints = len(grid)
	}
	pr, err := a.CurvePartialWorkers(ctx, grid, cfg.workers)
	if err != nil {
		return err
	}
	if !cfg.keepGoing {
		if rerr := pr.Report.Err(); rerr != nil {
			return fmt.Errorf("%v (rerun with -keep-going to sweep the surviving points)", rerr)
		}
	}
	results := pr.Successes()
	phis := make([]float64, 0, len(results))
	for _, i := range pr.SuccessIndices() {
		phis = append(phis, grid[i])
	}

	if cfg.csvOut {
		c := experiments.Curve{Label: "sweep", Params: p, Phis: phis, Results: results}
		return experiments.WriteResultsCSV(os.Stdout, c)
	}
	fmt.Printf("parameters: %+v\n", p)
	fmt.Print("derived overhead parameters:")
	for i, rho := range a.Rhos() {
		fmt.Printf(" rho%d = %.4f", i+1, rho)
	}
	fmt.Print("\n\n")

	rows := [][]string{{"phi", "Y", "E[W_phi]", "Y^S1", "Y^S2", "gamma", "P(S1)"}}
	best := results[0]
	var ys []float64
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r.Phi),
			fmt.Sprintf("%.4f", r.Y),
			fmt.Sprintf("%.1f", r.EWPhi),
			fmt.Sprintf("%.1f", r.YS1),
			fmt.Sprintf("%.1f", r.YS2),
			fmt.Sprintf("%.4f", r.Gamma),
			fmt.Sprintf("%.4f", r.PS1),
		})
		ys = append(ys, r.Y)
		if r.Y > best.Y {
			best = r
		}
	}
	fmt.Print(textplot.Table(rows))
	fmt.Println()
	fmt.Print(textplot.Chart("Y vs phi", phis, []textplot.Series{{Name: "Y", Y: ys}}, 66, 14))
	fmt.Println()
	if pr.Report.Failed() > 0 {
		fmt.Printf("note: %d of %d sweep points were skipped:\n%s\n\n",
			pr.Report.Failed(), pr.Report.Total, pr.Report.Summary())
	}
	fmt.Printf("optimal phi (grid) = %.0f with Y = %.4f\n", best.Phi, best.Y)
	if cfg.refine {
		refined, err := a.OptimizePhiContext(ctx, core.OptimizeOptions{Workers: cfg.workers})
		if err != nil {
			return err
		}
		fmt.Printf("optimal phi (continuous) = %.0f with Y = %.4f\n", refined.Phi, refined.Y)
		best = refined
	}
	if best.Y <= 1 {
		fmt.Println("note: max Y <= 1 — guarded operation does not pay off under these parameters.")
	}
	fmt.Println("\nconstituent measures at the optimum:")
	fmt.Print(textplot.Table([][]string{
		{"measure", "value"},
		{"P(X'_phi in A'_1)", fmt.Sprintf("%.6f", best.Gd.PA1)},
		{"int h", fmt.Sprintf("%.6f", best.Gd.IntH)},
		{"int tau*h", fmt.Sprintf("%.2f", best.Gd.IntTauH)},
		{"int int h*f", fmt.Sprintf("%.3e", best.Gd.IntHF)},
		{"P(X''_theta in A''_1)", fmt.Sprintf("%.6f", best.PNoFailNewTheta)},
		{"P(X''_(theta-phi) in A''_1)", fmt.Sprintf("%.6f", best.PNoFailNewRem)},
		{"int_phi^theta f", fmt.Sprintf("%.3e", best.IntF)},
	}))
	return nil
}

// selfCheckError tags a failed health gate with exit code 2 unless the
// failure was a cancellation (which stays a plain runtime error).
func selfCheckError(err error) error {
	if errors.Is(err, robust.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &codedError{code: exitSelfCheckFail, err: err}
}
