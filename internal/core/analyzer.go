package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/parametric"
	"guardedop/internal/robust"
)

// Analyzer evaluates the performability index Y(φ) for one parameter set.
// It builds the three SAN reward models once and reuses them across φ
// values; the steady-state overhead measures ρ₁, ρ₂ are φ-independent and
// solved at construction time.
//
// Grid evaluation (Curve and friends) runs on the shared-propagation curve
// engine (engine.go); single-point evaluation solves each φ directly with
// three full-horizon passes (RMGd, and each RMNd separately), keeping it an
// independent reference for the engine. The Analyzer is immutable after
// construction, so every method is safe for concurrent use.
type Analyzer struct {
	params mdcd.Params

	gd     *mdcd.RMGd
	ndNew  *mdcd.RMNd     // normal mode with the upgraded pair {P1new, P2}
	ndOld  *mdcd.RMNd     // normal mode with the recovered pair {P1old, P2}
	ndPair *mdcd.RMNdPair // both RMNd instantiations stacked into one chain

	// rhos holds the solved per-process forward-progress fractions, one
	// per active process. The paper's two-process study yields
	// [ρ₁, ρ₂]; templated scenarios carry one entry per node. Its length
	// is the A of the Eq. 5–21 assembly (the paper's literal 2).
	rhos []float64

	// par is the closed-form parametric system, nil when the mode is off
	// or an Auto-mode build declined (out-of-domain parameters, failed
	// probe validation). Queries that reach a non-nil par and still fail
	// fall back to the numeric engine per point. parMode records what the
	// caller asked for, so fallbacks are counted whenever a parametric
	// mode was requested but the numeric engine served the query.
	par     *parametric.System
	parMode ParametricMode

	pNoFailNewTheta float64 // P(X″_θ ∈ A″₁), cached: it is φ-independent
}

// ParametricMode selects how the analyzer uses the closed-form parametric
// layer (internal/parametric) for point evaluation.
type ParametricMode int

const (
	// ParametricOff disables the closed-form layer entirely: every point
	// is solved numerically. The zero value, so existing callers keep
	// bit-identical numeric behavior.
	ParametricOff ParametricMode = iota
	// ParametricAuto builds the closed-form system when the parameters
	// lie inside its validated domain, the Gd space is small enough
	// (parametricMaxStates) and the system passes probe cross-validation,
	// silently falling back to the numeric engine otherwise (and per
	// point on any closed-form evaluation error).
	ParametricAuto
)

// Options relaxes model assumptions for ablation studies; the zero value
// reproduces the paper.
type Options struct {
	// RecoverySuccess is the probability that recovery succeeds after a
	// detection (paper: 1). Zero means 1.
	RecoverySuccess float64

	// Parametric selects the closed-form fast path. The zero value is
	// ParametricOff.
	Parametric ParametricMode
}

// NewAnalyzer builds the composite base model for the given parameters
// under the paper's assumptions.
func NewAnalyzer(p mdcd.Params) (*Analyzer, error) {
	return NewAnalyzerWithOptions(p, Options{})
}

// NewAnalyzerWithOptions builds the composite base model with relaxed
// assumptions: the paper's two-process scenario (mdcd.PaperScenario),
// carrying o.RecoverySuccess, generated and verified by mdcd.Generate and
// wired up like any other scenario.
func NewAnalyzerWithOptions(p mdcd.Params, o Options) (*Analyzer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sc := mdcd.PaperScenario(p)
	sc.RecoverySuccess = o.RecoverySuccess
	m, err := mdcd.Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("core: building the paper models: %w", err)
	}
	return newFromModels(ScenarioModels{Params: p, Gd: m.Gd, NdNew: m.NdNew, NdOld: m.NdOld, Rhos: m.Gp.Rhos}, o.Parametric)
}

// ScenarioModels carries the constituent models of a generated scenario
// into the analyzer: mdcd.Generate (behind template.Build) builds and
// verifies them, so the curve engine, the optimizer, and the serving
// layer run unchanged on any generated instance.
type ScenarioModels struct {
	// Params is the scenario's translation-layer parameter set (θ drives
	// the grids and horizons; the rate fields describe the baseline the
	// heterogeneous nodes deviate from).
	Params mdcd.Params
	// Gd is the scenario's guarded-operation dependability model.
	Gd *mdcd.RMGd
	// NdNew / NdOld are the normal-mode models of the upgraded and
	// recovered configurations.
	NdNew, NdOld *mdcd.RMNd
	// Rhos holds one solved forward-progress fraction per node.
	Rhos []float64
}

// parametricMaxStates gates the closed-form layer: the spectral
// decomposition is validated for the paper models' small spaces (the
// paper Gd has 22 states), so only comparably small Gd spaces attempt it.
// Larger scenarios always use the numeric engine.
const parametricMaxStates = 32

// NewScenarioAnalyzer wraps generated constituent models into an
// Analyzer. The models must come from mdcd.Generate (template.Build),
// which has already model-checked every space; the ρ values are
// range-checked here. On the paper spec it yields the same analyzer
// NewAnalyzer builds.
func NewScenarioAnalyzer(sm ScenarioModels, o Options) (*Analyzer, error) {
	return newFromModels(sm, o.Parametric)
}

// newFromModels is the one construction path behind both constructors. It
// checks the parameter set and the ρ values, then wires the solver
// machinery: the stacked RMNd pair, the φ-independent P(X″_θ ∈ A″₁), and
// — when a parametric mode is requested and the Gd space is small enough
// — the closed-form parametric layer.
func newFromModels(sm ScenarioModels, mode ParametricMode) (*Analyzer, error) {
	p := sm.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sm.Gd == nil || sm.NdNew == nil || sm.NdOld == nil {
		return nil, fmt.Errorf("core: scenario models incomplete: %w", robust.ErrInvariant)
	}
	if len(sm.Rhos) < 2 {
		return nil, fmt.Errorf("core: scenario needs at least two per-node rho values, got %d: %w",
			len(sm.Rhos), robust.ErrInvariant)
	}
	for i, rho := range sm.Rhos {
		if err := robust.CheckProbability(fmt.Sprintf("rho[%d]", i), rho, probabilityTol); err != nil {
			return nil, err
		}
	}
	ndPair, err := mdcd.NewRMNdPair(sm.NdNew, sm.NdOld)
	if err != nil {
		return nil, fmt.Errorf("core: stacking RMNd pair: %w", err)
	}
	pTheta, err := sm.NdNew.NoFailureProbability(p.Theta)
	if err != nil {
		return nil, fmt.Errorf("core: solving P(X''_theta in A''_1): %w", err)
	}
	var par *parametric.System
	switch mode {
	case ParametricOff:
	case ParametricAuto:
		if sm.Gd.Space.NumStates() > parametricMaxStates {
			mode = ParametricOff
			break
		}
		if par, err = parametric.NewSystem(p, sm.Gd, sm.NdNew, sm.NdOld); err != nil {
			// The numeric engine covers the whole parameter space; a
			// build error only means this parameter set gets no fast
			// path.
			par = nil
		}
	default:
		return nil, fmt.Errorf("core: unknown parametric mode %d", mode)
	}
	return &Analyzer{
		params:          p,
		gd:              sm.Gd,
		rhos:            append([]float64(nil), sm.Rhos...),
		ndNew:           sm.NdNew,
		ndOld:           sm.NdOld,
		ndPair:          ndPair,
		par:             par,
		parMode:         mode,
		pNoFailNewTheta: pTheta,
	}, nil
}

// Parametric reports whether the closed-form parametric layer is active
// for this analyzer (built, probe-validated, and serving point queries).
func (a *Analyzer) Parametric() bool { return a.par != nil }

// Params returns the analyzer's parameter set.
func (a *Analyzer) Params() mdcd.Params { return a.params }

// Rho returns the solved forward-progress fractions of the first two
// processes (ρ₁, ρ₂) — the complete set for the paper's two-process
// study. Scenario analyzers with more nodes expose the full vector
// through Rhos.
func (a *Analyzer) Rho() (rho1, rho2 float64) { return a.rhos[0], a.rhos[1] }

// Rhos returns a copy of the per-process forward-progress fractions, one
// entry per active process.
func (a *Analyzer) Rhos() []float64 { return append([]float64(nil), a.rhos...) }

// Result carries the performability index for one G-OP duration together
// with every intermediate quantity of the translation, so callers can
// inspect the constituent measures the way the paper does in Section 6.
type Result struct {
	Phi float64
	// Y is the performability index (Eq. 1). Y > 1 means guarded operation
	// of this duration reduces the expected total performance degradation.
	Y float64

	EWI   float64 // E[W_I] = 2θ
	EW0   float64 // E[W_0] (Eq. 5)
	EWPhi float64 // E[W_φ] (Eq. 6)
	YS1   float64 // Y^{S1}_φ (Eq. 8)
	YS2   float64 // Y^{S2}_φ (Eqs. 15/16/21)
	Gamma float64 // discount factor γ = 1 − τ̄/θ

	// Constituent measures.
	Rho1, Rho2      float64
	Gd              mdcd.GdMeasures // RMGd measures at φ (Table 1)
	PNoFailNewTheta float64         // P(X″_θ ∈ A″₁)
	PNoFailNewRem   float64         // P(X″_{θ−φ} ∈ A″₁)
	IntF            float64         // ∫_φ^θ f(x)dx
	PS1             float64         // P(S1) (Eq. 14)
}

// Evaluate computes Y(φ) and all intermediate quantities under the paper's
// γ treatment. φ must lie in [0, θ].
func (a *Analyzer) Evaluate(phi float64) (Result, error) {
	return a.EvaluateWithPolicy(phi, GammaPaperTauBar)
}

// EvaluateWithPolicy computes Y(φ) under an explicit γ policy (used by the
// ablation experiments; Evaluate uses the paper's policy). Each call solves
// its point afresh: three full-horizon solver passes on the numeric path.
func (a *Analyzer) EvaluateWithPolicy(phi float64, policy GammaPolicy) (Result, error) {
	return a.evaluateCtx(context.Background(), phi, policy)
}

// EvaluateContext is Evaluate under a caller-carried context: spans and
// counters report to the context's tracer/scope, so per-request and
// per-benchmark observers see the evaluation's work attributed to them
// rather than to the process at large.
func (a *Analyzer) EvaluateContext(ctx context.Context, phi float64) (Result, error) {
	return a.evaluateCtx(ctx, phi, GammaPaperTauBar)
}

// evaluateCtx is the point-wise evaluation path under a caller-carried
// context: one "core.evaluate" span covers the call, and its solver passes
// report to the context's scope/tracer. The numeric path spends three
// passes — one combined transient+accumulated pass over RMGd at φ, and one
// transient pass over each RMNd at θ−φ. It deliberately solves the two
// RMNd models separately rather than through the stacked pair the curve
// engine uses, so it stays an independent reference for that engine.
func (a *Analyzer) evaluateCtx(ctx context.Context, phi float64, policy GammaPolicy) (Result, error) {
	ctx, sp := obs.StartSpan(ctx, "core.evaluate")
	defer sp.End()
	sp.SetFloat("phi", phi)
	p := a.params
	if math.IsNaN(phi) || phi < 0 || phi > p.Theta {
		return Result{}, fmt.Errorf("core: phi = %g out of [0, theta=%g]", phi, p.Theta)
	}
	if a.parMode != ParametricOff {
		if a.par != nil {
			gdm, pNew, pOld, perr := a.parametricPoint(phi)
			if perr == nil {
				if res, aerr := a.assemble(phi, policy, gdm, pNew, pOld); aerr == nil {
					obs.Count(ctx, obs.CtrParametricHits, 1)
					sp.Event("parametric_hit")
					return res, nil
				}
			}
		}
		// A parametric mode was requested but the numeric engine serves
		// this point: the system was never built (out-of-domain
		// parameters under auto), the query was declined, or — in case
		// the closed form itself produced the degenerate value — the
		// assembly failed and is re-checked numerically.
		obs.Count(ctx, obs.CtrParametricFallbacks, 1)
		obs.AddEvent(ctx, "parametric_fallback")
	}
	gdms, err := a.gd.MeasuresSeriesContext(ctx, []float64{phi})
	if err != nil {
		return Result{}, fmt.Errorf("core: RMGd measures at phi=%g: %w", phi, err)
	}
	rem := p.Theta - phi
	pNoFailNewRem, err := a.ndNew.NoFailureProbabilityContext(ctx, rem)
	if err != nil {
		return Result{}, fmt.Errorf("core: P(X''_(theta-phi)): %w", err)
	}
	pNoFailOldRem, err := a.ndOld.NoFailureProbabilityContext(ctx, rem)
	if err != nil {
		return Result{}, fmt.Errorf("core: recovered-pair survival: %w", err)
	}
	return a.assemble(phi, policy, gdms[0], pNoFailNewRem, pNoFailOldRem)
}

// parametricPoint evaluates one φ's constituent measures through the
// closed-form layer. Any error means the layer declined this query and
// the caller must take the numeric path; it never panics and never
// returns non-finite values (the evaluators guard their exports).
func (a *Analyzer) parametricPoint(phi float64) (gdm mdcd.GdMeasures, pNewRem, pOldRem float64, err error) {
	if gdm, err = a.par.GdMeasures(phi); err != nil {
		return
	}
	rem := a.params.Theta - phi
	if pNewRem, err = a.par.NoFailureNew(rem); err != nil {
		return
	}
	pOldRem, err = a.par.NoFailureOld(rem)
	return
}

// assemble folds solved constituent measures into the performability index:
// the Eq. 5–21 translation layer, shared by the point-wise path and the
// curve engine.
func (a *Analyzer) assemble(phi float64, policy GammaPolicy, gdm mdcd.GdMeasures, pNoFailNewRem, pNoFailOldRem float64) (Result, error) {
	p := a.params
	// A, the number of active processes, generalises the literal 2 of the
	// paper's two-process Eqs. 5–21. With the paper's models A == 2.0
	// exactly, so every product below is bit-identical to the historical
	// hardwired form.
	active := float64(len(a.rhos))
	res := Result{
		Phi:             phi,
		EWI:             active * p.Theta,
		Rho1:            a.rhos[0],
		Rho2:            a.rhos[1],
		PNoFailNewTheta: a.pNoFailNewTheta,
	}
	res.EW0 = active * p.Theta * a.pNoFailNewTheta
	res.Gd = gdm
	res.PNoFailNewRem = pNoFailNewRem
	res.IntF = 1 - pNoFailOldRem

	// Eq. 14: P(S1).
	if phi > 0 {
		res.PS1 = gdm.PA1 * res.PNoFailNewRem
	} else {
		res.PS1 = a.pNoFailNewTheta
	}

	// Left-to-right accumulation keeps the two-process sum exactly
	// rhos[0] + rhos[1], the historical Rho1 + Rho2 evaluation order.
	rhoSum := 0.0
	for _, rho := range a.rhos {
		rhoSum += rho
	}

	// Eq. 8: Y^{S1}.
	res.YS1 = (rhoSum*phi + active*(p.Theta-phi)) * res.PS1

	gamma, err := gammaFor(policy, gdm, p.Theta)
	if err != nil {
		return Result{}, err
	}
	res.Gamma = gamma

	// Eqs. 15/16/21: Y^{S2} = γ(minuend − subtrahend).
	minuend := active*p.Theta*gdm.IntH - (active-rhoSum)*gdm.IntTauH
	subtrahend := active*p.Theta*gdm.IntHF + active*p.Theta*gdm.IntH*res.IntF
	res.YS2 = res.Gamma * (minuend - subtrahend)
	if res.YS2 < 0 {
		// The translation can only produce a negative Y^{S2} through the
		// neglected higher-order term of Eq. 19; worth cannot be negative.
		res.YS2 = 0
	}

	res.EWPhi = res.YS1 + res.YS2
	denom := res.EWI - res.EWPhi
	if denom <= 0 {
		return Result{}, robust.Diagnose("core.Analyzer", p, phi, fmt.Errorf(
			"E[W_I] - E[W_phi] = %g <= 0 (mission worth exceeded the ideal bound): %w",
			denom, robust.ErrInvariant))
	}
	res.Y = (res.EWI - res.EW0) / denom
	if err := res.checkInvariants(); err != nil {
		return Result{}, robust.Diagnose("core.Analyzer", p, phi, err)
	}
	return res, nil
}

// probabilityTol absorbs solver round-off when asserting that a computed
// probability lies in [0,1].
const probabilityTol = 1e-9

// checkInvariants asserts the model-level invariants of one evaluation:
// every constituent probability lies in [0,1], the discount γ lies in
// [0,1], the expected worths are finite, and E[W_φ] never exceeds the
// ideal-mission bound E[W_I]. Violations mean the parameter set drove the
// translation into a degenerate region; they wrap robust.ErrInvariant (or
// robust.ErrNonFinite) so sweeps can skip-and-report them.
func (r *Result) checkInvariants() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"P(X'_phi in A'_1)", r.Gd.PA1},
		{"P(X''_theta in A''_1)", r.PNoFailNewTheta},
		{"P(X''_(theta-phi) in A''_1)", r.PNoFailNewRem},
		{"P(S1)", r.PS1},
		{"int_phi^theta f", r.IntF},
		{"gamma", r.Gamma},
		{"rho1", r.Rho1},
		{"rho2", r.Rho2},
	} {
		if err := robust.CheckProbability(c.name, c.v, probabilityTol); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Y", r.Y},
		{"E[W_0]", r.EW0},
		{"Y^S1", r.YS1},
		{"Y^S2", r.YS2},
	} {
		if err := robust.CheckFinite(c.name, c.v); err != nil {
			return err
		}
	}
	return robust.CheckBound("E[W_phi]", r.EWPhi, r.EWI, probabilityTol*r.EWI)
}

// Curve evaluates Y at each φ in phis, failing on the first degenerate
// point (the strict historical contract). Sweeps that should survive
// degenerate regions use CurvePartial instead.
func (a *Analyzer) Curve(phis []float64) ([]Result, error) {
	pr, err := a.curveBatch(context.Background(), phis, true, 1)
	if err != nil {
		// Surface the per-point cause, not the batch wrapper.
		if len(pr.Report.Failures) > 0 {
			return nil, pr.Report.Failures[0].Err
		}
		return nil, err
	}
	return pr.Results, nil
}

// CurvePartial evaluates Y at each φ through the fault-tolerant batch
// runner: a φ whose evaluation fails (degenerate measures, invariant
// violation, non-finite solve) is skipped and recorded in the report
// instead of aborting the sweep. The error is non-nil only when the
// context is canceled or every point fails. A canceled sweep still
// returns every point solved before the deadline in the PartialResult —
// the completed prefix — alongside the ErrCanceled-wrapping error.
// Points are evaluated on a worker pool using every core; use
// CurvePartialWorkers to bound it.
func (a *Analyzer) CurvePartial(ctx context.Context, phis []float64) (*robust.PartialResult[Result], error) {
	return a.CurvePartialWorkers(ctx, phis, 0)
}

// CurvePartialWorkers is CurvePartial with an explicit worker-pool bound
// (0 = every core, 1 = sequential). The Analyzer is immutable after
// construction, so concurrent evaluation is safe and the sweep's results
// and report are identical for every worker count.
func (a *Analyzer) CurvePartialWorkers(ctx context.Context, phis []float64, workers int) (*robust.PartialResult[Result], error) {
	pr, err := a.curveBatch(ctx, phis, false, workers)
	if err != nil {
		return pr, err
	}
	if len(phis) > 0 && pr.Report.Succeeded() == 0 {
		return pr, fmt.Errorf("core: every phi in the sweep failed: %w", pr.Report.Err())
	}
	return pr, nil
}

func (a *Analyzer) curveBatch(ctx context.Context, phis []float64, strict bool, workers int) (*robust.PartialResult[Result], error) {
	return a.curveBatchPolicy(ctx, phis, GammaPaperTauBar, strict, workers)
}

// curveBatchPolicy runs the shared-propagation curve engine over a φ-grid:
// one batched solve pass over contiguous segments of the sorted grid
// (engine.go), then a per-point assembly batch. A point whose segment solve
// failed falls back to the point-wise path so only genuinely degenerate
// durations fail. The sweep counts its CTMC solver passes into the
// context (obs.CtrSolvePasses); a caller that needs the exact count opens
// its own obs.WithScope around the call.
//
// A sweep whose context dies mid-way keeps its completed prefix: segments
// solved before the deadline are still assembled (assembly is pure
// arithmetic, so it runs detached from the cancellation), unreached
// segments' points fail with ErrCanceled, and the batch error wraps
// ErrCanceled so callers — gsueval's -timeout, gsuserve's per-request
// deadlines — can serve the surviving points as a partial result.
func (a *Analyzer) curveBatchPolicy(ctx context.Context, phis []float64, policy GammaPolicy, strict bool, workers int) (*robust.PartialResult[Result], error) {
	ctx, sp := obs.StartSpan(ctx, "core.curve")
	defer sp.End()
	sp.SetInt("points", int64(len(phis)))
	var pts []solvedPoint
	if a.par != nil {
		// The closed-form layer replaces the engine's batched solve stage
		// outright: zero solver passes, per-point polynomial evaluation.
		// A declined point carries its error into assembly, which retries
		// it through the numeric point-wise fallback — the same recovery
		// route as a failed numeric segment.
		sp.Event("parametric_stage")
		pts = a.parametricCurvePoints(ctx, phis)
	} else {
		if a.parMode != ParametricOff {
			// A parametric mode was requested but the system was never
			// built (out-of-domain parameters under auto): the whole
			// sweep is served numerically, one fallback per point.
			obs.Count(ctx, obs.CtrParametricFallbacks, int64(len(phis)))
			obs.AddEvent(ctx, "parametric_fallback")
		}
		pts = a.solveCurvePoints(ctx, phis, workers)
	}
	// Assembly folds already-solved measures into Results: microseconds of
	// arithmetic per point, no solver passes. Running it on a context
	// detached from the sweep's cancellation is what preserves the
	// completed prefix; the detached context still carries the tracer and
	// scope, so observability is unaffected.
	actx := context.WithoutCancel(ctx)
	// The strict curve keeps its historical fail-fast contract, which
	// RunBatch guarantees by running StopOnError batches sequentially.
	pr, err := robust.RunBatch(actx, pts, func(ictx context.Context, pt solvedPoint) (Result, error) {
		if pt.err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The sweep's deadline has passed: re-solving the point
				// through the fallback would ignore the cancellation.
				if errors.Is(pt.err, robust.ErrCanceled) {
					return Result{}, pt.err
				}
				return Result{}, fmt.Errorf("%w: %v (segment: %w)", robust.ErrCanceled, cerr, pt.err)
			}
			obs.AddEvent(ictx, "fallback_pointwise")
			obs.Count(ictx, obs.CtrFallbackPoints, 1)
			return a.evaluateCtx(ictx, pt.phi, policy)
		}
		return a.assemble(pt.phi, policy, pt.gdm, pt.pNewRem, pt.pOldRem)
	}, robust.BatchOptions{StopOnError: strict, Workers: workers})
	if err == nil && pr.Report.Failed() > 0 {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("core: curve sweep canceled after %d/%d points: %w (%v)",
				pr.Report.Succeeded(), len(phis), robust.ErrCanceled, cerr)
		}
	}
	return pr, err
}

// OptimalPhi evaluates the given candidate durations and returns the result
// maximising Y. It errors on an empty candidate list.
func (a *Analyzer) OptimalPhi(phis []float64) (Result, error) {
	if len(phis) == 0 {
		return Result{}, fmt.Errorf("core: OptimalPhi needs at least one candidate")
	}
	results, err := a.Curve(phis)
	if err != nil {
		return Result{}, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Y > best.Y {
			best = r
		}
	}
	return best, nil
}

// SweepGrid returns n+1 equally spaced φ values covering [0, theta],
// matching the grids of the paper's Figures 9-12.
func SweepGrid(theta float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, theta*float64(i)/float64(n))
	}
	// θ·n/n can round one ulp above θ, which the analyzer would reject.
	return append(out, theta)
}
