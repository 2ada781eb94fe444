package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/modelcheck"
	"guardedop/internal/parametric"
	"guardedop/internal/statespace"
	"guardedop/internal/template"
	"guardedop/internal/uncertainty"
)

// setupReps is how many times a batch workload repeats its set-up; the
// reported setup_s is the median.
const setupReps = 101

// drawParams draws one parameter set over the ranges the paper's
// Figs. 9–12 sweep: µ_new in [0.5e-4, 1e-4], α=β in [2500, 6000] and
// coverage c in [0.10, 0.95] (the low end is the c=0.10 collapse), at
// the given θ. Every other field keeps its Table 3 value.
func drawParams(rng *rand.Rand, theta float64) mdcd.Params {
	return paramsAt(theta, rng.Float64(), rng.Float64(), rng.Float64())
}

// paramsAt maps the unit coordinates u of µ_new, α=β and c onto the
// ranges drawParams draws from.
func paramsAt(theta, uMu, uAB, uC float64) mdcd.Params {
	p := mdcd.DefaultParams()
	p.Theta = theta
	p.MuNew = 0.5e-4 + 0.5e-4*uMu
	ab := 2500 + 3500*uAB
	p.Alpha, p.Beta = ab, ab
	p.Coverage = 0.10 + 0.85*uC
	return p
}

// drawStratified draws n parameter sets at θ over the ranges of
// drawParams as a Latin hypercube: each of µ_new, α=β and c falls once
// into each of n equal strata of its range, in an order the seed
// shuffles. An op's cost depends on these rates (α=β alone sets the
// uniformization work), so a class of ops drawn this way covers every
// range evenly on every seed, and the class's median cost reflects the
// program rather than where one seed's draws happened to fall.
func drawStratified(rng *rand.Rand, theta float64, n int) []mdcd.Params {
	perms := [3][]int{rng.Perm(n), rng.Perm(n), rng.Perm(n)}
	u := func(d, i int) float64 { return (float64(perms[d][i]) + rng.Float64()) / float64(n) }
	out := make([]mdcd.Params, n)
	for i := range out {
		out[i] = paramsAt(theta, u(0, i), u(1, i), u(2, i))
	}
	return out
}

// cycles returns how many passes over a workload's fixed op cycle make up
// a run of the given nominal length, given the measured wall time of one
// cycle. The op count depends only on the seconds argument, not on how
// fast the program runs, so every commit executes the same ops and the
// tail percentile means the same thing. The traced pass runs each op
// twice (untraced and traced), so it takes half the cycles.
func cycles(cfg config, cycleSeconds float64) int {
	n := int(math.Round(float64(cfg.seconds) / cycleSeconds))
	if cfg.trace {
		n /= 2
	}
	return max(n, 1)
}

// roundTrip encodes v as the JSON document a user would hand the tool and
// decodes it back into dst: the input-parsing part of set-up.
func roundTrip(v, dst any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding inputs: %w", err)
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return fmt.Errorf("decoding inputs: %w", err)
	}
	return nil
}

// timeSetup runs setup setupReps times and returns every duration; the
// inputs of the last repetition are the ones used.
func timeSetup(setup func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Every repetition starts from a collected heap, so a collection
		// the previous one left due does not land in this one.
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

// batchOp is one timed op of a batch workload.
type batchOp struct {
	kind string
	run  func(ctx context.Context) error
	// replay, when set, is the traced pass's layer-by-layer replay of
	// what the op's constructor does; it runs outside the op's timing.
	replay func(ctx context.Context) error
}

// runBatch times ops one after another. Untraced, each op runs once;
// traced, each op runs both untraced and traced (the pair gives the
// tracing overhead), followed by its replay. An op that errors is a
// wrong answer: a batch op has no refusal a user could retry. Afterwards
// check verifies the answers outside the timed phase and returns how
// many were wrong.
func runBatch(cfg config, name string, setup []time.Duration, ops []batchOp, check func() (int, error)) (*outcome, error) {
	o := &outcome{setup: setup, attempted: len(ops)}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var untracedTotal, tracedTotal time.Duration
	timed := func(op batchOp) (time.Duration, error) {
		t0 := time.Now()
		err := op.run(context.Background())
		return time.Since(t0), err
	}
	// Throughput is good ops per second of op time, so the pauses between
	// ops (the harness's own bookkeeping) do not enter it.
	var good int
	var busy time.Duration
	rss := sampleRSS("self")
	for i, op := range ops {
		var d time.Duration
		var err error
		if !cfg.trace {
			d, err = timed(op)
		} else {
			// Alternate which of the pair runs first, so warm-up effects
			// cancel out of the overhead ratio.
			var u time.Duration
			if i%2 == 0 {
				if u, err = timed(op); err == nil {
					d, err = rec.op(i, op.kind, op.run)
				}
			} else if d, err = rec.op(i, op.kind, op.run); err == nil {
				u, err = timed(op)
			}
			untracedTotal += u
			tracedTotal += d
			if err == nil && op.replay != nil {
				err = rec.replayOp(i, op.replay)
			}
		}
		o.latencies = append(o.latencies, d)
		busy += d
		if err != nil {
			o.wrong += mismatch(cfg, "op %d (%s) failed: %v", i, op.kind, err)
		} else {
			good++
		}
	}
	o.opsPerS = float64(good) / busy.Seconds()
	printKinds(cfg, ops, o.latencies)
	var err error
	if o.rssMB, err = rss.close(); err != nil {
		return nil, err
	}
	w, err := check()
	if err != nil {
		return nil, err
	}
	o.wrong += w
	if cfg.trace {
		v := rec.batchLayers()
		v["bench.trace_overhead_ratio"] = ratio(float64(untracedTotal), float64(tracedTotal))
		o.layers = layerMetrics(v)
		rec.printShares(cfg)
		if draws := rec.opCounts["draws"]; draws > 0 {
			var busy time.Duration
			for _, d := range rec.ops.self {
				busy += d
			}
			perDraw := ms(busy) / draws
			fmt.Fprintf(cfg.log, "per posterior draw: %.2f ms busy; the replay's parametric.NewSystem takes %.2f ms (%.0f%%), the whole constructor %.2f ms, the curve %.3f ms\n",
				perDraw, v["parametric.build_ms"], 100*v["parametric.build_ms"]/perDraw, v["core.build_ms"], v["core.curve_ms"])
		}
		path, err := rec.write(cfg.outDir, name, cfg.seed)
		if err != nil {
			return nil, err
		}
		if path != "" {
			fmt.Fprintf(cfg.log, "spans written to %s\n", path)
		}
	}
	return o, nil
}

// printKinds prints, per op kind, how many ops ran and their median
// latency, so a move of op_p50_ms can be traced to the class that made it.
func printKinds(cfg config, ops []batchOp, lat []time.Duration) {
	byKind := map[string][]time.Duration{}
	var kinds []string
	for i, op := range ops {
		if byKind[op.kind] == nil {
			kinds = append(kinds, op.kind)
		}
		byKind[op.kind] = append(byKind[op.kind], lat[i])
	}
	for _, k := range kinds {
		fmt.Fprintf(cfg.log, "%s ops: %d, median %.1f ms\n", k, len(byKind[k]), ms(median(byKind[k])))
	}
}

// --- study -----------------------------------------------------------

// studySlot fixes the grid size and θ of one op of the study cycle; the
// seed draws the rest of the parameter set. The 50-point θ=5000 grids
// and the 100-point grids fall below the uniformization budget (the
// method-selection cliff) and cost 0.5–1.5 s; the 11-point and the
// 50-point θ=10000 grids take the dense matrix exponential and cost
// tens of ms, most of it in the optimizer. The mix fixes every run's
// cost profile, and it places the median and the tail op inside the
// 50-point θ=5000 class, whose cost is set by the curve engine rather
// than by where a class boundary happens to fall.
type studySlot struct {
	points int
	theta  float64
}

var studyCycle = []studySlot{
	{11, 5000}, {11, 10000}, {50, 10000}, {50, 5000}, {50, 5000}, {50, 5000}, {50, 5000}, {100, 10000}, {100, 10000},
}

// studyCycleSeconds is the wall time of one study cycle, measured when
// the host was busy; it sets the op count for a given -seconds. A run of
// three cycles (27 ops) puts the median at the 5th and the tail at the
// 8th of the twelve 50×5000 ops, away from both edges of the class.
const studyCycleSeconds = 5

// studyInput is one study op as the user would write it down.
type studyInput struct {
	Params mdcd.Params `json:"params"`
	Points int         `json:"points"`
}

// studyAnswer is what one study op computes.
type studyAnswer struct {
	curve []core.Result
	best  core.Result
}

func runStudy(cfg config) (*outcome, error) {
	n := cycles(cfg, studyCycleSeconds) * len(studyCycle)
	var inputs []studyInput
	var grids [][]float64
	setup, err := timeSetup(func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		// Each slot class (grid size and θ) draws its sets stratified
		// over the whole run, then the cycles deal them out.
		perClass := map[studySlot]int{}
		for _, s := range studyCycle {
			perClass[s] += n / len(studyCycle)
		}
		pools := map[studySlot][]mdcd.Params{}
		for _, s := range studyCycle {
			if pools[s] == nil {
				pools[s] = drawStratified(rng, s.theta, perClass[s])
			}
		}
		gen := make([]studyInput, 0, n)
		for len(gen) < n {
			for _, i := range rng.Perm(len(studyCycle)) {
				s := studyCycle[i]
				gen = append(gen, studyInput{Params: pools[s][0], Points: s.points})
				pools[s] = pools[s][1:]
			}
		}
		inputs = nil
		if err := roundTrip(gen, &inputs); err != nil {
			return err
		}
		grids = make([][]float64, len(inputs))
		for i, in := range inputs {
			if err := in.Params.Validate(); err != nil {
				return err
			}
			grids[i] = core.SweepGrid(in.Params.Theta, in.Points-1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	answers := make([]studyAnswer, len(inputs))
	ops := make([]batchOp, len(inputs))
	for i := range inputs {
		i := i
		ops[i] = batchOp{
			kind: fmt.Sprintf("%d-point", inputs[i].Points),
			run: func(ctx context.Context) (err error) {
				answers[i], err = studyOp(ctx, inputs[i].Params, grids[i])
				return err
			},
			replay: func(ctx context.Context) error {
				return replayBuild(ctx, inputs[i].Params, core.ParametricOff, nil)
			},
		}
	}
	return runBatch(cfg, "study", setup, ops, func() (int, error) {
		return checkStudy(cfg, inputs, grids, answers)
	})
}

// studyOp is what the paper and gsueval -experiment do for one parameter
// set: build the analyzer with core's default options, compute the Y(φ)
// curve on the grid and search the optimal duration.
func studyOp(ctx context.Context, p mdcd.Params, grid []float64) (studyAnswer, error) {
	var ans studyAnswer
	a, err := construct(ctx, "core.NewAnalyzerWithOptions", func() (*core.Analyzer, error) {
		return core.NewAnalyzerWithOptions(p, core.Options{})
	})
	if err != nil {
		return ans, err
	}
	if ans.curve, err = curve(ctx, a, grid); err != nil {
		return ans, err
	}
	err = call(ctx, "core.Analyzer.OptimizePhiContext", func(ctx context.Context) (err error) {
		ans.best, err = a.OptimizePhiContext(ctx, core.OptimizeOptions{})
		return err
	})
	return ans, err
}

// curve evaluates the whole grid and fails if any point failed.
func curve(ctx context.Context, a *core.Analyzer, grid []float64) ([]core.Result, error) {
	var out []core.Result
	err := call(ctx, "core.Analyzer.CurvePartial", func(ctx context.Context) error {
		pr, err := a.CurvePartial(ctx, grid)
		if err != nil {
			return err
		}
		if pr.Report.Failed() > 0 {
			return fmt.Errorf("curve: %d of %d points failed: %w", pr.Report.Failed(), len(grid), pr.Report.Err())
		}
		out = pr.Results
		return nil
	})
	if err == nil {
		count(ctx, "curve_points", float64(len(grid)))
	}
	return out, err
}

// --- propagate -------------------------------------------------------

// propagateOpSeconds is the mean wall time of one propagation, measured
// when the host was busy.
const propagateOpSeconds = 0.35

const (
	propagateDraws = 25
	propagateGrid  = 10
	// replayDraws is how many draws of each traced propagation the
	// replay reconstructs layer by layer.
	replayDraws = 4
)

// propagateInput is one propagation: a base parameter set and the
// observed fault log that makes the Gamma posterior over µ_new.
type propagateInput struct {
	Params mdcd.Params `json:"params"`
	Faults int         `json:"faults"`
	Hours  float64     `json:"hours"`
	Seed   int64       `json:"seed"`
}

// propagatePrior is the weakly informed prior the serving path also
// defaults to: shape 2, centred on the paper's µ_new.
var propagatePrior = uncertainty.Gamma{Shape: 2, Rate: 2 / 1e-4}

func runPropagate(cfg config) (*outcome, error) {
	n := cycles(cfg, propagateOpSeconds)
	var inputs []propagateInput
	var posts []uncertainty.Gamma
	setup, err := timeSetup(func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		// The parameter sets and the fault logs are stratified over the
		// run as drawStratified does, so every seed spreads its
		// posteriors over the same ranges. Every fourth propagation runs
		// at θ = 5000, the others at θ = 10000. A θ = 5000 propagation
		// costs about two thirds of a θ = 10000 one, so an even split
		// would put the median op in the gap between the two classes,
		// where it moves with whichever op sits at the edge of each;
		// this split keeps the median and the tail inside one class.
		short := n / 4
		long, brief := drawStratified(rng, 10000, n-short), drawStratified(rng, 5000, short)
		faults, hours := rng.Perm(n), rng.Perm(n)
		gen := make([]propagateInput, n)
		for i := range gen {
			var p mdcd.Params
			if i%4 == 3 {
				p, brief = brief[0], brief[1:]
			} else {
				p, long = long[0], long[1:]
			}
			gen[i] = propagateInput{
				Params: p,
				Faults: faults[i] * 4 / n,
				Hours:  1000 + 19000*(float64(hours[i])+rng.Float64())/float64(n),
				Seed:   1 + rng.Int63n(1<<30),
			}
		}
		inputs = nil
		if err := roundTrip(gen, &inputs); err != nil {
			return err
		}
		posts = make([]uncertainty.Gamma, len(inputs))
		for i, in := range inputs {
			var err error
			if posts[i], err = uncertainty.PosteriorRate(propagatePrior, in.Faults, in.Hours); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	answers := make([]*uncertainty.Propagation, len(inputs))
	ops := make([]batchOp, len(inputs))
	for i := range inputs {
		i := i
		opts := uncertainty.PropagateOptions{
			Samples: propagateDraws, Seed: inputs[i].Seed, GridPoints: propagateGrid,
			Parametric: core.ParametricAuto,
		}
		ops[i] = batchOp{
			kind: "propagation",
			run: func(ctx context.Context) error {
				return call(ctx, "uncertainty.PropagateContext", func(ctx context.Context) (err error) {
					answers[i], err = uncertainty.PropagateContext(ctx, inputs[i].Params, posts[i], opts)
					if err == nil && answers[i].SamplesUsed < answers[i].SamplesRequested {
						err = fmt.Errorf("propagation kept %d of %d draws", answers[i].SamplesUsed, answers[i].SamplesRequested)
					}
					if ans := answers[i]; ans != nil {
						count(ctx, "draws", float64(ans.SamplesUsed))
						count(ctx, "draws_requested", float64(ans.SamplesRequested))
						count(ctx, "robust.retries", float64(ans.Report.Metrics.Retries))
						// Each kept draw evaluated the whole grid, out of
						// the context's reach.
						count(ctx, "curve_points", float64(ans.SamplesUsed*(propagateGrid+1)))
					}
					return err
				})
			},
			replay: func(ctx context.Context) error {
				grid := core.SweepGrid(inputs[i].Params.Theta, propagateGrid)
				for _, d := range answers[i].Draws[:min(replayDraws, len(answers[i].Draws))] {
					p := inputs[i].Params
					p.MuNew = d.Mu
					if err := replayBuild(ctx, p, core.ParametricAuto, grid); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	return runBatch(cfg, "propagate", setup, ops, func() (int, error) {
		return checkPropagate(cfg, inputs, answers)
	})
}

// --- scenario --------------------------------------------------------

// scenarioCycleSeconds is the measured wall time of one scenario cycle.
const scenarioCycleSeconds = 9

const scenarioPoints = 20

// scenarioSlot is one op of the scenario cycle.
type scenarioSlot struct {
	nodes  int
	policy template.GuardPolicy
}

// scenarioCycle is one pass over N ∈ {3, 4} × the four guard policies,
// with each N=3 scenario four times (on sets of its own). An N=4 op
// costs 5–30 times an N=3 one, so an even mix would put the median op
// in the gap between the two classes, where it moves with whichever op
// sits at the edge of each. Over a run of two cycles this mix puts the
// median in the middle of the eight N=3 staged ops and the tail among
// the eight N=3 abort-retry ones, while the N=4 ops still take most of
// the run's time and so set ops_per_s.
func scenarioCycle() []scenarioSlot {
	var out []scenarioSlot
	for _, n := range []int{3, 3, 3, 3, 4} {
		for _, p := range template.Policies() {
			out = append(out, scenarioSlot{n, p})
		}
	}
	return out
}

// scenarioSpec makes one N-node scenario from the parameter set p: one
// upgraded node, the rest on proven software, the given guard policy
// (abort-retry with one retry).
func scenarioSpec(p mdcd.Params, nodes int, policy template.GuardPolicy) *template.Spec {
	s := &template.Spec{
		Name:     fmt.Sprintf("n%d-%s", nodes, policy),
		Theta:    p.Theta,
		Coverage: p.Coverage,
		Alpha:    p.Alpha,
		Beta:     p.Beta,
		Defaults: template.NodeDefaults{Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld},
		Guard:    template.GuardSpec{Policy: policy},
		Nodes:    []template.NodeSpec{{Name: "P1", Upgrade: &template.UpgradeSpec{MuNew: p.MuNew}}},
	}
	if policy == template.PolicyAbortRetry {
		s.Guard.Retries = 1
	}
	for i := 2; i <= nodes; i++ {
		s.Nodes = append(s.Nodes, template.NodeSpec{Name: fmt.Sprintf("P%d", i)})
	}
	return s
}

func runScenario(cfg config) (*outcome, error) {
	cyc := scenarioCycle()
	n := cycles(cfg, scenarioCycleSeconds) * len(cyc)
	var specs []*template.Spec
	setup, err := timeSetup(func() error {
		rng := rand.New(rand.NewSource(cfg.seed))
		// Each slot draws its sets stratified over the run, θ alternating
		// between the two values the paper's figures use, starting on
		// 5000 and 10000 in turn from slot to slot so the run sends the
		// same number of ops to each.
		pools := make([][]mdcd.Params, len(cyc))
		per := n / len(cyc)
		for i := range cyc {
			first, second := 5000.0, 10000.0
			if i%2 == 1 {
				first, second = second, first
			}
			pools[i] = append(drawStratified(rng, first, (per+1)/2), drawStratified(rng, second, per/2)...)
		}
		specs = make([]*template.Spec, 0, n)
		for len(specs) < n {
			for _, i := range rng.Perm(len(cyc)) {
				p := pools[i][0]
				pools[i] = pools[i][1:]
				data, err := json.Marshal(scenarioSpec(p, cyc[i].nodes, cyc[i].policy))
				if err != nil {
					return fmt.Errorf("encoding spec: %w", err)
				}
				s, err := template.Parse(data)
				if err != nil {
					return err
				}
				specs = append(specs, s)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	answers := make([][]core.Result, len(specs))
	insts := make([]*template.Instance, len(specs))
	ops := make([]batchOp, len(specs))
	for i := range specs {
		i := i
		ops[i] = batchOp{
			kind: fmt.Sprintf("n%d-%s", len(specs[i].Nodes), specs[i].Guard.Policy),
			run: func(ctx context.Context) (err error) {
				insts[i], answers[i], err = scenarioOp(ctx, specs[i])
				return err
			},
			replay: func(ctx context.Context) error {
				inst := insts[i]
				count(ctx, "states", float64(inst.TotalStates))
				spaces := map[string]*statespace.Space{"Gd": inst.Gd.Space, "NdNew": inst.NdNew.Space, "NdOld": inst.NdOld.Space}
				if inst.GpSpace != nil {
					spaces["Gp"] = inst.GpSpace
				}
				return checkSpaces(ctx, spaces)
			},
		}
	}
	return runBatch(cfg, "scenario", setup, ops, func() (int, error) {
		return checkScenario(cfg, specs, answers)
	})
}

// scenarioOp generates the scenario's models, wires them into an
// analyzer and computes a 20-point curve.
func scenarioOp(ctx context.Context, spec *template.Spec) (*template.Instance, []core.Result, error) {
	inst, a, err := scenarioAnalyzer(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	c, err := curve(ctx, a, core.SweepGrid(spec.Theta, scenarioPoints-1))
	return inst, c, err
}

// scenarioAnalyzer builds the scenario's models and its analyzer.
func scenarioAnalyzer(ctx context.Context, spec *template.Spec) (*template.Instance, *core.Analyzer, error) {
	var inst *template.Instance
	var a *core.Analyzer
	err := call(ctx, "template.Build", func(ctx context.Context) error {
		return withAllocs(ctx, "template.build_alloc_kb", func() (err error) {
			inst, err = template.Build(ctx, spec)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	a, err = construct(ctx, "core.NewScenarioAnalyzer", func() (*core.Analyzer, error) {
		return core.NewScenarioAnalyzer(core.ScenarioModels{
			Params: inst.Params, Gd: inst.Gd, NdNew: inst.NdNew, NdOld: inst.NdOld, Rhos: inst.Rhos,
		}, core.Options{})
	})
	return inst, a, err
}

// construct calls an analyzer constructor inside a span named after it;
// on the traced pass it also records the constructor's allocations.
func construct(ctx context.Context, name string, build func() (*core.Analyzer, error)) (*core.Analyzer, error) {
	var a *core.Analyzer
	err := call(ctx, name, func(ctx context.Context) error {
		return withAllocs(ctx, "core.build_alloc_kb", func() (err error) {
			a, err = build()
			return err
		})
	})
	return a, err
}

// --- layer replay ----------------------------------------------------

// replayBuild reconstructs core.NewAnalyzerWithOptions step by step
// through the layers' public calls, so the traced pass can time each
// layer the constructor hides: model generation (mdcd), static
// verification (modelcheck), the steady-state overhead solve, and the
// closed-form parametric build. When grid is set — for ops that call
// the constructor out of sight — it then calls the constructor itself
// and the curve the op computes, whose counters show which engine served
// each point.
func replayBuild(ctx context.Context, p mdcd.Params, mode core.ParametricMode, grid []float64) error {
	var gd *mdcd.RMGd
	var gp *mdcd.RMGp
	var ndNew, ndOld *mdcd.RMNd
	steps := []struct {
		name string
		fn   func() error
	}{
		{"mdcd.BuildRMGd", func() (err error) { gd, err = mdcd.BuildRMGd(p); return err }},
		{"mdcd.BuildRMGp", func() (err error) { gp, err = mdcd.BuildRMGp(p); return err }},
		{"mdcd.BuildRMNd", func() (err error) { ndNew, err = mdcd.BuildRMNd(p, p.MuNew); return err }},
		{"mdcd.BuildRMNd", func() (err error) { ndOld, err = mdcd.BuildRMNd(p, p.MuOld); return err }},
	}
	for _, s := range steps {
		if err := call(ctx, s.name, func(context.Context) error { return s.fn() }); err != nil {
			return err
		}
	}
	count(ctx, "states", float64(gd.Space.NumStates()+gp.Space.NumStates()+ndNew.Space.NumStates()+ndOld.Space.NumStates()))
	err := checkSpaces(ctx, map[string]*statespace.Space{"RMGd": gd.Space, "RMGp": gp.Space, "RMNd(mu_new)": ndNew.Space, "RMNd(mu_old)": ndOld.Space})
	if err != nil {
		return err
	}
	if err := call(ctx, "mdcd.RMGp.Measures", func(context.Context) error { _, err := gp.Measures(); return err }); err != nil {
		return err
	}
	if mode != core.ParametricOff {
		_ = call(ctx, "parametric.NewSystem", func(context.Context) error {
			// A declined build is not a failure: the analyzer falls back
			// to the numeric engine, which is what the counter records.
			if _, err := parametric.NewSystem(p, gd, ndNew, ndOld); err != nil {
				count(ctx, "parametric.declined", 1)
			}
			return nil
		})
	}
	if grid == nil {
		return nil
	}
	a, err := construct(ctx, "core.NewAnalyzerWithOptions", func() (*core.Analyzer, error) {
		return core.NewAnalyzerWithOptions(p, core.Options{Parametric: mode})
	})
	if err != nil {
		return err
	}
	_, err = curve(ctx, a, grid)
	return err
}

// checkSpaces runs the static model verifier over each space, as the
// constructors do before any solve.
func checkSpaces(ctx context.Context, spaces map[string]*statespace.Space) error {
	for name, sp := range spaces {
		err := call(ctx, "modelcheck.CheckSpace", func(context.Context) error {
			if rep := modelcheck.CheckSpace(name, sp, modelcheck.Options{}); !rep.OK() {
				return fmt.Errorf("model check %s: %w", name, rep.Err())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
