package mdcd

import (
	"fmt"

	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// RMGp is the performance-overhead reward model of the G-OP mode (the
// paper's Figure 7). The environment is ideal (no faults); the model tracks
// which safeguard action, if any, each process is engaged in, and the
// confidence (dirty-bit) dynamics that decide when an action is required.
//
// Process lifecycle encoded in the places (the fields carry Figure 7's
// names; the generated places are scoped by node, e.g. P1nExt is P1.sext
// and P1nInt is P2.ckpt, owned by the checkpointing recipient P2):
//
//   - P1new alternates between P1nReady (making forward progress between
//     message sends) and P1nExt (its external message undergoing an AT of
//     mean duration 1/α). P1new never checkpoints: its state is always
//     considered potentially contaminated. When P1new sends an internal
//     message to a P2 whose dirty bit is clear, P2 must establish a
//     checkpoint first: P1nInt is non-zero while that checkpoint (mean
//     duration 1/β) is in progress — the paper's predicate for P2's
//     checkpoint overhead is MARK(P1nInt)==1 && MARK(P2DB)==0.
//   - P2 alternates between P2Ready and P2Ext (its own external message
//     under AT, required only while P2DB==1). While P2 is establishing a
//     checkpoint (P1nInt>0) it makes no forward progress and sends no
//     messages. P2's internal messages to a clean P1old trigger P1old
//     checkpoints (P1oCheck/P1o_CKPT), which set P1oDB; senders do not
//     block on the receiver's checkpoint.
//   - A completed AT validates the sender's state and clears the dirty bits
//     downstream of it (confidence-driven revalidation).
//
// Safeguard durations are exponential by default (the paper's assumption).
// BuildRMGpErlang generalises them to Erlang-k with the same mean (see
// buildGpJoint for the stage encoding); the reward predicates read "in
// progress" as a non-zero stage count, which coincides with the paper's
// MARK(..)==1 for k=1.
type RMGp struct {
	Space *statespace.Space

	// Stages is the Erlang stage count of AT and checkpoint durations
	// (1 = exponential, the paper's model).
	Stages int

	P1nReady *san.Place
	P1nExt   *san.Place // stage tokens of P1new's AT in progress
	P1nInt   *san.Place // stage tokens of P2's checkpoint in progress
	P2Ready  *san.Place
	P2Ext    *san.Place // stage tokens of P2's AT in progress
	P1oCheck *san.Place // stage tokens of P1old's checkpoint in progress
	P1oDB    *san.Place // dirty bit: P1old considered potentially contaminated
	P2DB     *san.Place // dirty bit: P2 considered potentially contaminated

	// The four safeguard activities behind SafeguardRates: the ATs on
	// P1new's and P2's external messages and the checkpoints of P2 and
	// P1old.
	P1nAT, P2AT, P2Ckpt, P1oCkpt *san.Activity

	joint *gpJoint // the generated model behind the handles
}

// BuildRMGp constructs and generates the RMGp model with exponential
// safeguard durations, as in the paper.
func BuildRMGp(p Params) (*RMGp, error) {
	return BuildRMGpErlang(p, 1)
}

// BuildRMGpErlang constructs RMGp with Erlang-`stages` AT and checkpoint
// durations of unchanged mean — an ablation of the exponential-duration
// assumption. stages must be in [1, 16] (the state space grows linearly
// with it). It runs the joint Gp generator on the paper's two-process
// scenario and binds the places and activities of Figure 7.
func BuildRMGpErlang(p Params, stages int) (*RMGp, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if stages < 1 || stages > 16 {
		return nil, fmt.Errorf("mdcd: Erlang stages = %d out of [1, 16]", stages)
	}
	sc := PaperScenario(p)
	sc.Stages = stages
	nodes, err := sc.index()
	if err != nil {
		return nil, err
	}
	j, err := buildGpJoint(&sc, nodes, 0)
	if err != nil {
		return nil, err
	}
	// P1 is upgraded node 0, P2 plain node 1.
	return &RMGp{
		Space:    j.space,
		Stages:   stages,
		P1nReady: j.sready[0],
		P1nExt:   j.sext[0],
		P1nInt:   j.ckpt[1],
		P2Ready:  j.ready[1],
		P2Ext:    j.ext[1],
		P1oCheck: j.ocheck[0],
		P1oDB:    j.odb[0],
		P2DB:     j.db[1],
		P1nAT:    j.sat[0],
		P2AT:     j.at[1],
		P2Ckpt:   j.ckptAct[1],
		P1oCkpt:  j.ockpt[0],
		joint:    j,
	}, nil
}
