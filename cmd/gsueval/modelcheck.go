package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"guardedop/internal/mdcd"
	"guardedop/internal/obs"
	"guardedop/internal/robust"
)

// modelCheck runs the static model verifier behind the -modelcheck flag:
// it builds every constituent model of the translation chain (RMGd, RMGp,
// and both RMNd instantiations) from the given parameters and verifies
// generator validity, reachability, absorbing/ergodic structure, and
// reward bounds — all before any solve. Each report is printed whether or
// not it passes; a failing report is tagged with exit code 2. Every
// check's finding count goes to the context's tracer as one
// obs.CtrModelCheckFindings sample keyed <model>/<check>, zero for a
// clean check, so -metrics reports model-verification health alongside
// solver health.
func modelCheck(ctx context.Context, p mdcd.Params, w io.Writer) error {
	fmt.Fprintf(w, "modelcheck: static model verification on %+v\n\n", p)
	reports, err := mdcd.CheckModels(p)
	for _, rep := range reports {
		rep.WriteText(w)
		fmt.Fprintln(w)
		for check, n := range rep.Counters() {
			obs.Count(ctx, obs.Labeled(obs.CtrModelCheckFindings, "check", rep.Model+"/"+check), int64(n))
		}
	}
	if err != nil {
		fmt.Fprintf(w, "modelcheck: FAIL: %v\n", err)
		if !errors.Is(err, robust.ErrInvariant) {
			// Rejected parameters never produced a model to verify; that
			// is still an invariant violation of the toolkit's input
			// contract, the same classification core.SelfCheck uses.
			err = fmt.Errorf("%w: %w", robust.ErrInvariant, err)
		}
		return selfCheckError(fmt.Errorf("modelcheck: %w", err))
	}
	fmt.Fprintln(w, "modelcheck: PASS")
	return nil
}
