package core

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// goldenRatio conjugate: the interior-point fraction of golden-section
// search.
const goldenConjugate = 0.6180339887498949

// OptimizeOptions tunes the continuous optimal-duration search.
type OptimizeOptions struct {
	// GridPoints is the coarse bracketing grid size (default 20 intervals).
	GridPoints int
	// Tolerance is the φ resolution at which refinement stops, in hours
	// (default θ/10000).
	Tolerance float64
	// Policy selects the γ treatment (default the paper's).
	Policy GammaPolicy
	// Workers bounds how many coarse-grid points are evaluated
	// concurrently: 0 (the default) uses every core, 1 evaluates
	// sequentially. The Analyzer is immutable after construction, so
	// concurrent evaluation is safe and the bracket (hence the refined
	// optimum) is identical for every worker count. The golden-section
	// refinement is inherently sequential and unaffected.
	Workers int
}

// OptimizePhi finds the guarded-operation duration maximising Y over
// [0, θ] to within the requested tolerance: a coarse grid brackets the
// maximum, then golden-section search refines it. Y(φ) is unimodal for
// every parameter set the study exercises (the tradeoff between the two
// degradation sources has a single crossover); should a parameter set ever
// produce multiple local maxima, the coarse grid keeps the search on the
// global one at grid resolution.
func (a *Analyzer) OptimizePhi(opts OptimizeOptions) (Result, error) {
	return a.OptimizePhiContext(context.Background(), opts)
}

// OptimizePhiContext is OptimizePhi with cancellation support and a
// fault-tolerant coarse grid: grid points whose evaluation fails are
// skipped (the bracket forms over the survivors) and the search errors
// only when every grid point fails or the context is canceled.
func (a *Analyzer) OptimizePhiContext(ctx context.Context, opts OptimizeOptions) (Result, error) {
	if opts.GridPoints == 0 {
		opts.GridPoints = 20
	}
	if opts.GridPoints < 2 {
		return Result{}, fmt.Errorf("core: OptimizePhi needs at least 2 grid intervals, got %d", opts.GridPoints)
	}
	theta := a.params.Theta
	if opts.Tolerance == 0 {
		opts.Tolerance = theta / 10000
	}
	if opts.Tolerance <= 0 || math.IsNaN(opts.Tolerance) {
		return Result{}, fmt.Errorf("core: invalid tolerance %g", opts.Tolerance)
	}
	ctx, osp := obs.StartSpan(ctx, "core.optimize")
	defer osp.End()
	osp.SetInt("grid_points", int64(opts.GridPoints))
	refineEvals := 0
	defer func() { osp.SetInt("refine_evals", int64(refineEvals)) }()

	// Refinement points go through the point-wise path: three solver
	// passes each on the numeric engine.
	eval := func(phi float64) (Result, error) {
		refineEvals++
		return a.evaluateCtx(ctx, phi, opts.Policy)
	}

	// Coarse bracket over the surviving grid points, solved by the
	// shared-propagation curve engine.
	grid := SweepGrid(theta, opts.GridPoints)
	pr, err := a.curveBatchPolicy(ctx, grid, opts.Policy, false, opts.Workers)
	if err != nil {
		return Result{}, err
	}
	if pr.Report.Succeeded() == 0 {
		return Result{}, fmt.Errorf("core: every grid point failed: %w", pr.Report.Err())
	}
	bestIdx := -1
	var best Result
	for i, ok := range pr.OK {
		if !ok {
			continue
		}
		if r := pr.Results[i]; bestIdx < 0 || r.Y > best.Y {
			best, bestIdx = r, i
		}
	}

	lo := grid[max(bestIdx-1, 0)]
	hi := grid[min(bestIdx+1, len(grid)-1)]
	if hi-lo <= opts.Tolerance {
		return best, nil
	}

	// Golden-section refinement on [lo, hi]. A refinement point that fails
	// to evaluate (possible when the bracket borders a degenerate region)
	// ends the refinement and falls back to the best point found so far —
	// the optimizer's contract is "best surviving duration", not "perfect
	// bracket".
	x1 := hi - goldenConjugate*(hi-lo)
	x2 := lo + goldenConjugate*(hi-lo)
	r1, err := eval(x1)
	if err != nil {
		return best, nil
	}
	r2, err := eval(x2)
	if err != nil {
		if r1.Y > best.Y {
			best = r1
		}
		return best, nil
	}
	for hi-lo > opts.Tolerance {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("core: OptimizePhi: %w (%v)", robust.ErrCanceled, err)
		}
		if r1.Y >= r2.Y {
			hi = x2
			x2, r2 = x1, r1
			x1 = hi - goldenConjugate*(hi-lo)
			if r1, err = eval(x1); err != nil {
				break
			}
		} else {
			lo = x1
			x1, r1 = x2, r2
			x2 = lo + goldenConjugate*(hi-lo)
			if r2, err = eval(x2); err != nil {
				break
			}
		}
	}
	for _, r := range []Result{r1, r2} {
		if r.Y > best.Y {
			best = r
		}
	}
	return best, nil
}
