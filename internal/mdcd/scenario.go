package mdcd

import (
	"fmt"
	"math"
	"strings"

	"guardedop/internal/robust"
)

// GuardPolicy names how detections end (or restart) the guarded
// operation. See docs/TEMPLATES.md for the catalog.
type GuardPolicy string

const (
	// PolicyGlobal is the paper's policy: one detection anywhere retires
	// every upgraded component and drops the whole system to the proven
	// configuration for the rest of [0, θ].
	PolicyGlobal GuardPolicy = "global"
	// PolicyPerNode retires only the upgraded node whose own external
	// message was caught; a detection attributed to the confidence chain
	// (a contaminated plain node) cannot be localised and retires every
	// remaining suspect. The G-OP mode ends when all suspects are retired.
	PolicyPerNode GuardPolicy = "per-node"
	// PolicyStaged rolls the upgrades out one suspect at a time: only one
	// upgraded node is under guard at once, and it is committed (trusted,
	// AT switched off) when one of its external messages passes the AT.
	// A detection aborts the whole rollout.
	PolicyStaged GuardPolicy = "staged"
	// PolicyAbortRetry gives the upgrade a retry budget: a detection
	// rolls the system back but keeps the suspects in service until the
	// budget is exhausted, after which it behaves like PolicyGlobal.
	PolicyAbortRetry GuardPolicy = "abort-retry"
)

// Policies lists every supported guard policy.
func Policies() []GuardPolicy {
	return []GuardPolicy{PolicyGlobal, PolicyPerNode, PolicyStaged, PolicyAbortRetry}
}

// Node is one resolved scenario node: every rate is explicit.
type Node struct {
	Name string
	// Lambda is the message-sending rate, PExt the probability a message
	// is external, MuOld the fault-manifestation rate of proven software.
	Lambda, PExt, MuOld float64
	// Upgraded marks a node running upgraded software, with
	// fault-manifestation rate MuNew, during G-OP.
	Upgraded bool
	MuNew    float64
}

// Scenario is the resolved input of the GSU model generators (Generate,
// BuildNd): N nodes, the safeguard parameters and the guard policy. The
// paper's study is the two-node scenario behind BuildRMGd, BuildRMGp and
// BuildRMNd.
type Scenario struct {
	Name string
	// Coverage is the AT coverage c; Alpha and Beta the AT and
	// checkpoint completion rates.
	Coverage, Alpha, Beta float64
	// Policy is the guard policy (empty means PolicyGlobal) and Retries
	// PolicyAbortRetry's rollback budget.
	Policy  GuardPolicy
	Retries int
	// MaxStates bounds each generated state space (0 keeps the
	// statespace default).
	MaxStates int
	Nodes     []Node

	// RecoverySuccess is the probability that recovery succeeds after a
	// detection in Gd (the paper's assumption is 1; zero means 1).
	RecoverySuccess float64
	// Stages is the Erlang stage count of the joint Gp's AT and
	// checkpoint durations (the paper's exponential is 1; zero means 1).
	Stages int
}

// node is one indexed node of a scenario.
type node struct {
	Node
	idx  int // position among all nodes
	uidx int // position among upgraded nodes; -1 for plain nodes
}

func scenarioErr(format string, args ...any) error {
	return fmt.Errorf("mdcd: scenario: "+format+": %w", append(args, robust.ErrInvariant)...)
}

// policy returns the guard policy with the default applied.
func (sc *Scenario) policy() GuardPolicy {
	if sc.Policy == "" {
		return PolicyGlobal
	}
	return sc.Policy
}

// index checks the generator-level constraints on the node list — at
// least two nodes with unique, non-empty, dot-free names (generated places
// are named "<node>.<place>") and finite non-negative rates — and assigns
// node indices. Spec-level rules (name syntax, upgrade mix, p_ext range)
// are the caller's.
func (sc *Scenario) index() ([]node, error) {
	if len(sc.Nodes) < 2 {
		return nil, scenarioErr("needs at least 2 nodes, got %d", len(sc.Nodes))
	}
	nodes := make([]node, len(sc.Nodes))
	seen := make(map[string]bool, len(sc.Nodes))
	upgrades := 0
	for i, n := range sc.Nodes {
		if n.Name == "" || strings.Contains(n.Name, ".") || seen[n.Name] {
			return nil, scenarioErr("node %d name %q is empty, dotted or duplicate", i, n.Name)
		}
		seen[n.Name] = true
		for _, v := range []float64{n.Lambda, n.PExt, n.MuOld, n.MuNew} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, scenarioErr("node %q has rate %g out of range", n.Name, v)
			}
		}
		nodes[i] = node{Node: n, idx: i, uidx: -1}
		if n.Upgraded {
			nodes[i].uidx = upgrades
			upgrades++
		}
	}
	return nodes, nil
}

// PaperScenario returns the paper's two-process study as a scenario: P1
// upgraded, P2 plain, both at the Params rates, global guard policy.
// Its Params(p.Theta) is p again.
func PaperScenario(p Params) Scenario {
	return Scenario{
		Name:     "paper-baseline",
		Coverage: p.Coverage,
		Alpha:    p.Alpha,
		Beta:     p.Beta,
		Policy:   PolicyGlobal,
		Nodes: []Node{
			{Name: "P1", Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld, Upgraded: true, MuNew: p.MuNew},
			{Name: "P2", Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld},
		},
	}
}

// Params derives the translation-layer parameter set of the scenario: θ,
// the safeguard parameters, and — as the scenario's baseline rates — the
// rates of the first upgraded node (heterogeneous nodes carry their own
// rates in the generated models). On a scenario resolved from a valid
// template spec the result validates.
func (sc Scenario) Params(theta float64) Params {
	p := Params{Theta: theta, Coverage: sc.Coverage, Alpha: sc.Alpha, Beta: sc.Beta}
	for _, n := range sc.Nodes {
		if n.Upgraded {
			p.Lambda, p.PExt, p.MuOld, p.MuNew = n.Lambda, n.PExt, n.MuOld, n.MuNew
			break
		}
	}
	return p
}
