package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// curveChunkSize is the number of grid points each independently-propagated
// segment of a curve sweep covers. Segment boundaries are a pure function
// of the sorted grid — never of the worker count — so CurvePartialWorkers
// stays bit-identical at any parallelism. The value trades propagation
// sharing (larger segments amortize better) against parallelism and
// blast radius (a solver failure voids only one segment's points before
// the per-point fallback reclaims the good ones).
const curveChunkSize = 32

// solvedPoint carries one φ-grid point's pre-solved constituent measures
// from the engine's batched solve stage to the assembly stage. err marks a
// point whose segment solve failed (or whose φ is out of range); assembly
// re-evaluates such points through the point-wise path.
type solvedPoint struct {
	phi     float64
	gdm     mdcd.GdMeasures
	pNewRem float64 // P(X″_{θ−φ} ∈ A″₁), upgraded pair
	pOldRem float64 // recovered-pair survival over [φ, θ]
	err     error
}

// solveCurvePoints runs the engine's solve stage: the valid φ are sorted,
// split into contiguous segments of curveChunkSize, and each segment is
// solved with two shared incremental passes — one combined
// transient+accumulated series over RMGd for every RMGd measure, and one
// transient series over the stacked RMNd pair for both no-failure
// probabilities. That is 2 solver passes per grid point. The production
// point path (Evaluate) spends 3; 8 is the per-measure oracle the
// equivalence tests check against (RMGd.MeasuresContext, one pass per
// RMGd measure, plus one per RMNd).
func (a *Analyzer) solveCurvePoints(ctx context.Context, phis []float64, workers int) []solvedPoint {
	pts := make([]solvedPoint, len(phis))
	theta := a.params.Theta
	valid := make([]int, 0, len(phis))
	for i, phi := range phis {
		pts[i].phi = phi
		if math.IsNaN(phi) || phi < 0 || phi > theta {
			pts[i].err = fmt.Errorf("core: phi = %g out of [0, theta=%g]", phi, theta)
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return pts
	}
	sort.SliceStable(valid, func(x, y int) bool { return phis[valid[x]] < phis[valid[y]] })
	chunks := make([][]int, 0, (len(valid)+curveChunkSize-1)/curveChunkSize)
	for start := 0; start < len(valid); start += curveChunkSize {
		end := min(start+curveChunkSize, len(valid))
		chunks = append(chunks, valid[start:end])
	}

	// Segments write disjoint index sets of pts, so the worker pool needs
	// no further synchronization.
	pr, batchErr := robust.RunBatch(ctx, chunks, func(cctx context.Context, chunk []int) (struct{}, error) {
		cctx, sp := obs.StartSpan(cctx, "core.segment")
		defer sp.End()
		sp.SetInt("points", int64(len(chunk)))
		chunkPhis := make([]float64, len(chunk))
		rems := make([]float64, len(chunk))
		for j, idx := range chunk {
			chunkPhis[j] = phis[idx]
			rems[j] = theta - phis[idx]
		}
		gdms, err := a.gd.MeasuresSeriesContext(cctx, chunkPhis)
		if err != nil {
			sp.Event("segment_failed")
			return struct{}{}, err
		}
		pNew, pOld, err := a.ndPair.NoFailureSeriesContext(cctx, rems)
		if err != nil {
			sp.Event("segment_failed")
			return struct{}{}, err
		}
		for j, idx := range chunk {
			pts[idx].gdm = gdms[j]
			pts[idx].pNewRem = pNew[j]
			pts[idx].pOldRem = pOld[j]
		}
		return struct{}{}, nil
	}, robust.BatchOptions{Workers: workers})

	for k, ok := range pr.OK {
		if ok {
			continue
		}
		// batchErr covers batch-level causes (cancellation) for segments
		// that never ran; a segment's own failure overrides it below.
		cerr := batchErr
		if cerr == nil {
			cerr = fmt.Errorf("core: curve segment %d did not complete", k)
		}
		for _, f := range pr.Report.Failures {
			if f.Index == k {
				cerr = f.Err
				break
			}
		}
		for _, idx := range chunks[k] {
			if pts[idx].err == nil {
				pts[idx].err = cerr
			}
		}
	}
	return pts
}

// parametricCurvePoints serves the solve stage from the closed-form
// parametric layer: every valid point costs polynomial evaluation only, no
// CTMC solver passes. Served points count as parametric hits here; a point
// the layer declines keeps its error and is re-evaluated by the assembly
// stage's numeric fallback, whose own parametric retry records the
// fallback count (so each declined point counts exactly once). A canceled
// context marks the remaining points ErrCanceled, preserving the sweep's
// completed-prefix contract.
func (a *Analyzer) parametricCurvePoints(ctx context.Context, phis []float64) []solvedPoint {
	pts := make([]solvedPoint, len(phis))
	theta := a.params.Theta
	for i, phi := range phis {
		pts[i].phi = phi
		if cerr := ctx.Err(); cerr != nil {
			pts[i].err = fmt.Errorf("%w: %v", robust.ErrCanceled, cerr)
			continue
		}
		if math.IsNaN(phi) || phi < 0 || phi > theta {
			pts[i].err = fmt.Errorf("core: phi = %g out of [0, theta=%g]", phi, theta)
			continue
		}
		gdm, pNew, pOld, err := a.parametricPoint(phi)
		if err != nil {
			pts[i].err = err
			continue
		}
		obs.Count(ctx, obs.CtrParametricHits, 1)
		pts[i].gdm, pts[i].pNewRem, pts[i].pOldRem = gdm, pNew, pOld
	}
	return pts
}
