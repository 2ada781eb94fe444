package ctmc

import (
	"context"

	"guardedop/internal/obs"
)

// countSolveOp records one transient/accumulated solver pass — one
// uniformization vector iteration or dense matrix-exponential evaluation,
// whether it produces π(t), L(t), or both at once — on whatever
// obs.Scope and obs.Tracer the context carries. The count is the
// observable behind the curve-engine performance contract: a shared
// incremental pass over a φ-grid must register far fewer passes than
// point-wise evaluation. Scopes are per region, so concurrent analyzers
// cannot pollute each other's counts (see internal/obs).
func countSolveOp(ctx context.Context) {
	obs.Count(ctx, obs.CtrSolvePasses, 1)
}
