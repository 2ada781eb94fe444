package mdcd

import (
	"context"
	"fmt"

	"guardedop/internal/ctmc"
	"guardedop/internal/obs"
	"guardedop/internal/reward"
	"guardedop/internal/sparse"
)

// RMNdPair solves two RMNd instantiations (the paper solves RMNd twice per
// φ: once with µ_new for the upgraded pair, once with µ_old for the
// recovered pair) in a single chain. The two generators are stacked
// block-diagonally, so the blocks evolve independently; starting each block
// at half its model's initial distribution and doubling its reward rates
// recovers both no-failure probabilities from one solver pass. The halving
// and doubling are exact in binary floating point, so stacking introduces
// no scaling error of its own.
type RMNdPair struct {
	chain *ctmc.Chain
	pi0   []float64
	// Doubled MARK(failure)==0 indicators, each supported on its own block.
	ratesFirst  []float64
	ratesSecond []float64
}

// NewRMNdPair stacks two generated RMNd models into one chain.
func NewRMNdPair(first, second *RMNd) (*RMNdPair, error) {
	if first == nil || second == nil || first.Space == nil || second.Space == nil {
		return nil, fmt.Errorf("mdcd: RMNdPair needs two generated models")
	}
	na, nb := first.Space.NumStates(), second.Space.NumStates()
	g := sparse.NewCOO(na+nb, na+nb)
	for r := 0; r < na; r++ {
		first.Space.Chain.Generator().Row(r, func(c int, v float64) {
			g.Add(r, c, v)
		})
	}
	for r := 0; r < nb; r++ {
		second.Space.Chain.Generator().Row(r, func(c int, v float64) {
			g.Add(na+r, na+c, v)
		})
	}
	chain, err := ctmc.New(g)
	if err != nil {
		return nil, fmt.Errorf("mdcd: stacking RMNd pair: %w", err)
	}
	p := &RMNdPair{
		chain:       chain,
		pi0:         make([]float64, na+nb),
		ratesFirst:  make([]float64, na+nb),
		ratesSecond: make([]float64, na+nb),
	}
	for i, v := range first.Space.Initial {
		p.pi0[i] = 0.5 * v
	}
	for i, v := range second.Space.Initial {
		p.pi0[na+i] = 0.5 * v
	}
	for i, v := range first.noFailRates {
		p.ratesFirst[i] = 2 * v
	}
	for i, v := range second.noFailRates {
		p.ratesSecond[na+i] = 2 * v
	}
	return p, nil
}

// NoFailureSeriesContext returns both models' P(no failure by t) for every
// horizon in ts (unsorted input is aligned with the outputs), costing one
// shared incremental solver pass per gap of the sorted grid for the pair —
// half the passes of running the two models' series separately, a quarter
// of point-wise evaluation. The stacked-pair propagation runs inside one
// "mdcd.RMNdPair.no_failure_series" span.
func (p *RMNdPair) NoFailureSeriesContext(ctx context.Context, ts []float64) (first, second []float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMNdPair.no_failure_series")
	defer sp.End()
	sp.SetInt("points", int64(len(ts)))
	pis, err := p.chain.Transient(ctx, p.pi0, ts)
	if err != nil {
		return nil, nil, err
	}
	first = make([]float64, len(ts))
	second = make([]float64, len(ts))
	for i, pi := range pis {
		if first[i], err = reward.Expected("P(no failure|first)", p.ratesFirst, pi); err != nil {
			return nil, nil, fmt.Errorf("mdcd: stacked no-failure at t=%g: %w", ts[i], err)
		}
		if second[i], err = reward.Expected("P(no failure|second)", p.ratesSecond, pi); err != nil {
			return nil, nil, fmt.Errorf("mdcd: stacked no-failure at t=%g: %w", ts[i], err)
		}
	}
	return first, second, nil
}
