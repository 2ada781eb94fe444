// Package san implements stochastic activity networks (SANs), the
// UltraSAN/Möbius modelling formalism of Meyer, Movaghar and Sanders used by
// the guarded-operation paper.
//
// A SAN consists of:
//
//   - Places holding non-negative integer markings (token counts).
//   - Timed activities that fire after an exponentially distributed delay
//     whose rate may depend on the current marking. Every activity is
//     timed: the paper's one instantaneous activity (the acceptance test)
//     is folded into case probabilities by the model builders, so no
//     marking is vanishing and every reachable marking is a CTMC state.
//   - Cases: each activity completes into one of its cases, selected by
//     marking-dependent case probabilities; each case applies its own
//     output changes. An activity with no explicit cases has one implicit
//     certain case.
//   - Input gates carrying an enabling predicate and a marking-mutation
//     function executed when the activity fires.
//   - Output gates carrying a marking-mutation function attached to a case.
//   - Plain input/output arcs as a convenience (tokens required/consumed
//     and produced).
//
// An activity is enabled when every input arc's place holds enough tokens
// and every input gate predicate holds. Firing consumes input-arc tokens,
// runs input-gate functions, selects a case, produces output-arc tokens and
// runs that case's output-gate functions, in that order.
//
// The package defines model structure and firing semantics only; state-space
// exploration and conversion to a CTMC live in internal/statespace, and
// reward specification in internal/reward.
package san
