package mdcd

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// RMNd is the normal-mode dependability model (the paper's Figure 8),
// generated by BuildNd: active processes with no safeguard mechanisms. In
// the paper's two-process model (BuildRMNd) the first process's
// fault-manifestation rate is configurable — the paper assigns µ_new to it
// when solving P(X″_t ∈ A″₁) for the upgraded pair {P1new, P2}, and µ_old
// when solving ∫f for the recovered pair {P1old, P2}.
type RMNd struct {
	Space *statespace.Space

	// P1ctn and P2ctn are bound only on the paper's two-process model
	// (BuildRMNd); they are nil on other scenarios.
	P1ctn   *san.Place
	P2ctn   *san.Place
	Failure *san.Place

	// noFailRates is the MARK(failure)==0 indicator over the generated
	// space, evaluated once at build time instead of on every call.
	noFailRates []float64
}

// BuildRMNd constructs the normal-mode model with fault-manifestation rate
// mu1 for the first software component (the second uses p.MuOld). It runs
// the scenario generator (BuildNd) on the paper's two-process scenario
// with mu1 as the first process's upgraded rate, and binds the
// per-process places the simulator reads.
func BuildRMNd(p Params, mu1 float64) (*RMNd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mu1 < 0 || math.IsNaN(mu1) || math.IsInf(mu1, 0) {
		return nil, fmt.Errorf("mdcd: mu1 = %g out of range", mu1)
	}
	sc := PaperScenario(p)
	sc.Nodes[0].MuNew = mu1
	r, ctn, err := buildNd(&sc, true)
	if err != nil {
		return nil, err
	}
	r.P1ctn, r.P2ctn = ctn[0], ctn[1]
	return r, nil
}

// NoFailureProbabilityContext returns P(failure has not occurred by t),
// the expected instant-of-time reward with predicate MARK(failure)==0 and
// rate 1 (paper §5.2.3). The pass runs inside one "mdcd.RMNd.no_failure"
// span.
func (r *RMNd) NoFailureProbabilityContext(ctx context.Context, t float64) (float64, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMNd.no_failure")
	defer sp.End()
	sp.SetFloat("t", t)
	pis, err := r.Space.Chain.Transient(ctx, r.Space.Initial, []float64{t})
	if err != nil {
		return 0, err
	}
	return dotReward("P(no failure)", r.noFailRates, pis[0])
}

// NoFailureRates returns the MARK(failure)==0 indicator vector prebuilt
// at construction, for assemblers outside the package (the parametric
// layer). The returned slice is the model's backing array; callers must
// not modify it.
func (r *RMNd) NoFailureRates() []float64 { return r.noFailRates }
