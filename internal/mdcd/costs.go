package mdcd

import (
	"guardedop/internal/reward"
	"guardedop/internal/statespace"
)

// SafeguardRates are the long-run frequencies (events per hour) of the four
// safeguard operations performed under the G-OP mode, solved as
// steady-state impulse-reward rates on RMGp. Multiplying by a duration φ
// gives the expected operation counts of one guarded operation — the cost
// side of the performability tradeoff, which the rate rewards of Table 2
// summarise only as time fractions.
type SafeguardRates struct {
	// P1nAT is the acceptance-test rate on P1new's external messages.
	P1nAT float64
	// P2AT is the acceptance-test rate on P2's external messages.
	P2AT float64
	// P2Ckpt is P2's checkpoint-establishment rate.
	P2Ckpt float64
	// P1oCkpt is P1old's checkpoint-establishment rate.
	P1oCkpt float64
}

// Total returns the combined safeguard operation rate.
func (s SafeguardRates) Total() float64 { return s.P1nAT + s.P2AT + s.P2Ckpt + s.P1oCkpt }

// SafeguardRates solves the long-run safeguard frequencies from one
// steady-state solve of the chain. Completion of an operation is the final
// Erlang stage: the impulse is gated on the in-progress place holding
// exactly one remaining stage token.
func (r *RMGp) SafeguardRates() (SafeguardRates, error) {
	lastStage := func(pl interface{ Index() int }) func(int, *statespace.Space) bool {
		return func(stateIdx int, sp *statespace.Space) bool {
			return sp.States[stateIdx][pl.Index()] == 1
		}
	}
	var out SafeguardRates
	items := []struct {
		activity string
		place    interface{ Index() int }
		dst      *float64
	}{
		{"P1nAT", r.P1nExt, &out.P1nAT},
		{"P2AT", r.P2Ext, &out.P2AT},
		{"P2_CKPT", r.P1nInt, &out.P2Ckpt},
		{"P1o_CKPT", r.P1oCheck, &out.P1oCkpt},
	}
	structs := make([]*reward.ImpulseStructure, len(items))
	for i, item := range items {
		structs[i] = reward.NewImpulseStructure().AddWhen(item.activity, 1, lastStage(item.place))
	}
	rates, err := reward.SteadyStateImpulseRate(r.Space, structs...)
	if err != nil {
		return SafeguardRates{}, err
	}
	for i, item := range items {
		*item.dst = rates[i]
	}
	return out, nil
}
