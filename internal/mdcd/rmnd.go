package mdcd

import (
	"context"
	"fmt"
	"math"

	"guardedop/internal/obs"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// RMNd is the normal-mode dependability model (the paper's Figure 8): two
// active processes with no safeguard mechanisms. The first process's
// fault-manifestation rate is configurable — the paper assigns µ_new to it
// when solving P(X″_t ∈ A″₁) for the upgraded pair {P1new, P2}, and µ_old
// when solving ∫f for the recovered pair {P1old, P2}.
type RMNd struct {
	Space *statespace.Space

	P1ctn   *san.Place
	P2ctn   *san.Place
	Failure *san.Place

	// noFailRates is the MARK(failure)==0 indicator over the generated
	// space, evaluated once at build time instead of on every call.
	noFailRates []float64
}

// BuildRMNd constructs the normal-mode model with fault-manifestation rate
// mu1 for the first software component (the second uses p.MuOld).
func BuildRMNd(p Params, mu1 float64) (*RMNd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mu1 < 0 || math.IsNaN(mu1) || math.IsInf(mu1, 0) {
		return nil, fmt.Errorf("mdcd: mu1 = %g out of range", mu1)
	}
	m := san.NewModel("RMNd")
	r := &RMNd{
		P1ctn:   m.AddPlace("P1Nctn", 0),
		P2ctn:   m.AddPlace("P2ctn", 0),
		Failure: m.AddPlace("failure", 0),
	}
	alive := func(mk san.Marking) bool { return mk.Get(r.Failure) == 0 }
	fail := func(mk san.Marking) {
		mk.Set(r.Failure, 1)
		mk.Set(r.P1ctn, 0)
		mk.Set(r.P2ctn, 0)
	}

	p1fm := m.AddTimedActivity("P1Nfm", san.ConstRate(mu1)).
		AddInputGate("enabled", func(mk san.Marking) bool {
			return alive(mk) && mk.Get(r.P1ctn) == 0
		}, nil)
	p1fm.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(r.P1ctn, 1) })

	p2fm := m.AddTimedActivity("P2fm", san.ConstRate(p.MuOld)).
		AddInputGate("enabled", func(mk san.Marking) bool {
			return alive(mk) && mk.Get(r.P2ctn) == 0
		}, nil)
	p2fm.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(r.P2ctn, 1) })

	// addMsg wires a normal-mode message-sending activity for the process
	// whose contamination place is own, propagating to peer.
	addMsg := func(name string, own, peer *san.Place) {
		act := m.AddTimedActivity(name, san.ConstRate(p.Lambda)).
			AddInputGate("alive", alive, nil)
		act.AddCase(func(mk san.Marking) float64 { // erroneous external: failure
			if mk.Get(own) == 1 {
				return p.PExt
			}
			return 0
		}).AddOutputFunc(fail)
		act.AddCase(func(mk san.Marking) float64 { // clean external
			if mk.Get(own) == 0 {
				return p.PExt
			}
			return 0
		})
		act.AddCase(san.ConstProb(1 - p.PExt)). // internal: propagate
							AddOutputFunc(func(mk san.Marking) {
				if mk.Get(own) == 1 {
					mk.Set(peer, 1)
				}
			})
	}
	addMsg("P1Nmsg", r.P1ctn, r.P2ctn)
	addMsg("P2msg", r.P2ctn, r.P1ctn)

	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		return nil, err
	}
	r.Space = sp
	r.noFailRates = make([]float64, sp.NumStates())
	for i, mk := range sp.States {
		if mk.Get(r.Failure) == 0 {
			r.noFailRates[i] = 1
		}
	}
	return r, nil
}

// NoFailureProbability returns P(failure has not occurred by t), the
// expected instant-of-time reward with predicate MARK(failure)==0 and rate 1
// (paper §5.2.3).
func (r *RMNd) NoFailureProbability(t float64) (float64, error) {
	return r.NoFailureProbabilityContext(context.Background(), t)
}

// NoFailureProbabilityContext is NoFailureProbability under a
// caller-carried context: the pass runs inside one
// "mdcd.RMNd.no_failure" span.
func (r *RMNd) NoFailureProbabilityContext(ctx context.Context, t float64) (float64, error) {
	ctx, sp := obs.StartSpan(ctx, "mdcd.RMNd.no_failure")
	defer sp.End()
	sp.SetFloat("t", t)
	return r.Space.Chain.TransientRewardContext(ctx, r.Space.Initial, t, r.noFailRates)
}

// NoFailureRates returns the MARK(failure)==0 indicator vector prebuilt
// at construction, for assemblers outside the package (the parametric
// layer). The returned slice is the model's backing array; callers must
// not modify it.
func (r *RMNd) NoFailureRates() []float64 { return r.noFailRates }
