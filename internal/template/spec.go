// Package template generates the GSU (guarded software-upgrade) model
// family from declarative scenario specs: N nodes, multiple simultaneous
// upgrades, alternative guard policies, and heterogeneous per-node rates.
//
// The paper's study hardwires one scenario — two processes, one upgraded,
// a global guard duration φ — into the handwritten internal/mdcd models.
// Following Montecchi et al.'s SAN Templates approach, this package
// parameterizes that structure: a Spec describes the scenario, Build
// mechanically regenerates the three constituent reward models (the
// guarded-operation dependability model Gd, the performance-overhead
// model Gp, and the normal-mode models Nd), verifies every generated
// state space with internal/modelcheck, and hands the results to
// internal/core, whose translation layer (Eqs. 5–21 generalized to N
// active processes) runs unchanged.
//
// The canonical two-node spec (PaperSpec) regenerates state spaces
// isomorphic to the handwritten models and reproduces the paper's Y(φ)
// curve to 1e-9 relative error; the equivalence tests pin both.
package template

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"

	"guardedop/internal/mdcd"
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

// NodeDefaults carries the per-node rate defaults a NodeSpec may override.
type NodeDefaults struct {
	// Lambda is the message-sending rate (per hour).
	Lambda float64 `json:"lambda"`
	// PExt is the probability a message is external.
	PExt float64 `json:"p_ext"`
	// MuOld is the fault-manifestation rate of proven (old-version)
	// software.
	MuOld float64 `json:"mu_old"`
}

// UpgradeSpec marks a node as running upgraded software during G-OP.
type UpgradeSpec struct {
	// MuNew is the fault-manifestation rate of the upgraded version.
	MuNew float64 `json:"mu_new"`
}

// NodeSpec describes one node. Zero-valued rate fields inherit the spec
// defaults.
type NodeSpec struct {
	Name   string  `json:"name"`
	Lambda float64 `json:"lambda,omitempty"`
	PExt   float64 `json:"p_ext,omitempty"`
	MuOld  float64 `json:"mu_old,omitempty"`
	// Upgrade is non-nil for nodes running upgraded software.
	Upgrade *UpgradeSpec `json:"upgrade,omitempty"`
}

// GuardSpec selects the guard policy.
type GuardSpec struct {
	// Policy is the guard policy; empty means PolicyGlobal.
	Policy GuardPolicy `json:"policy,omitempty"`
	// Retries is PolicyAbortRetry's rollback budget (0 with that policy
	// degenerates to PolicyGlobal; other policies require it unset).
	Retries int `json:"retries,omitempty"`
}

// Limits bounds state-space generation for the scenario's models,
// mapping onto statespace.Options. Zero fields keep the statespace
// defaults.
type Limits struct {
	MaxStates int `json:"max_states,omitempty"`
}

// Spec is a declarative GSU scenario.
type Spec struct {
	Name string `json:"name"`
	// Theta is the mission duration θ (hours).
	Theta float64 `json:"theta"`
	// Coverage is the AT error-detection coverage c.
	Coverage float64 `json:"coverage"`
	// Alpha and Beta are the AT and checkpoint completion rates.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`

	Defaults NodeDefaults `json:"defaults"`
	Guard    GuardSpec    `json:"guard"`
	Nodes    []NodeSpec   `json:"nodes"`
	Limits   Limits       `json:"limits,omitempty"`
}

// node is one resolved node: defaults applied, indices assigned.
type node struct {
	name     string
	lambda   float64
	pext     float64
	muOld    float64
	upgraded bool
	muNew    float64
	idx      int // position among all nodes
	uidx     int // position among upgraded nodes; -1 for plain nodes
}

var nodeNameRe = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_-]*$`)

func specErr(format string, args ...any) error {
	return fmt.Errorf("template: "+format+": %w", append(args, robust.ErrInvariant)...)
}

func checkRate(what string, v float64, allowZero bool) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (!allowZero && v == 0) {
		return specErr("%s = %g out of range", what, v)
	}
	return nil
}

// Validate checks the spec's structural and numeric constraints.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return specErr("scenario name is empty")
	}
	if err := checkRate("theta", s.Theta, false); err != nil {
		return err
	}
	if math.IsNaN(s.Coverage) || s.Coverage <= 0 || s.Coverage > 1 {
		return specErr("coverage = %g out of (0, 1]", s.Coverage)
	}
	if err := checkRate("alpha", s.Alpha, false); err != nil {
		return err
	}
	if err := checkRate("beta", s.Beta, false); err != nil {
		return err
	}
	switch s.Guard.Policy {
	case "", PolicyGlobal, PolicyPerNode, PolicyStaged:
		if s.Guard.Retries != 0 {
			return specErr("guard.retries = %d requires the %q policy", s.Guard.Retries, PolicyAbortRetry)
		}
	case PolicyAbortRetry:
		if s.Guard.Retries < 0 {
			return specErr("guard.retries = %d is negative", s.Guard.Retries)
		}
	default:
		return specErr("unknown guard policy %q", s.Guard.Policy)
	}
	if s.Limits.MaxStates < 0 {
		return specErr("limits must be non-negative, got %+v", s.Limits)
	}
	_, err := s.resolve()
	return err
}

// resolve applies defaults and validates the node list.
func (s *Spec) resolve() ([]node, error) {
	if len(s.Nodes) < 2 {
		return nil, specErr("scenario needs at least 2 nodes, got %d", len(s.Nodes))
	}
	nodes := make([]node, len(s.Nodes))
	seen := make(map[string]bool, len(s.Nodes))
	upgrades := 0
	for i, ns := range s.Nodes {
		if !nodeNameRe.MatchString(ns.Name) {
			return nil, specErr("node %d name %q is not a valid identifier", i, ns.Name)
		}
		if seen[ns.Name] {
			return nil, specErr("duplicate node name %q", ns.Name)
		}
		seen[ns.Name] = true
		n := node{
			name:   ns.Name,
			lambda: ns.Lambda,
			pext:   ns.PExt,
			muOld:  ns.MuOld,
			idx:    i,
			uidx:   -1,
		}
		if n.lambda == 0 {
			n.lambda = s.Defaults.Lambda
		}
		if n.pext == 0 {
			n.pext = s.Defaults.PExt
		}
		if n.muOld == 0 {
			n.muOld = s.Defaults.MuOld
		}
		if err := checkRate(fmt.Sprintf("node %q lambda", n.name), n.lambda, false); err != nil {
			return nil, err
		}
		if math.IsNaN(n.pext) || n.pext <= 0 || n.pext >= 1 {
			return nil, specErr("node %q p_ext = %g out of (0, 1)", n.name, n.pext)
		}
		if err := checkRate(fmt.Sprintf("node %q mu_old", n.name), n.muOld, true); err != nil {
			return nil, err
		}
		if ns.Upgrade != nil {
			n.upgraded = true
			n.muNew = ns.Upgrade.MuNew
			n.uidx = upgrades
			upgrades++
			if err := checkRate(fmt.Sprintf("node %q mu_new", n.name), n.muNew, true); err != nil {
				return nil, err
			}
		}
		nodes[i] = n
	}
	if upgrades == 0 {
		return nil, specErr("scenario has no upgraded node")
	}
	if upgrades == len(nodes) {
		return nil, specErr("scenario needs at least one plain (non-upgraded) node")
	}
	return nodes, nil
}

// Params derives the translation-layer parameter set the analyzer needs:
// θ, the safeguard rates, and the default node rates (heterogeneous
// per-node overrides live in the generated models themselves; the Params
// fields describe the scenario's baseline).
func (s *Spec) Params() mdcd.Params {
	p := mdcd.Params{
		Theta:    s.Theta,
		Lambda:   s.Defaults.Lambda,
		MuOld:    s.Defaults.MuOld,
		Coverage: s.Coverage,
		PExt:     s.Defaults.PExt,
		Alpha:    s.Alpha,
		Beta:     s.Beta,
	}
	for _, ns := range s.Nodes {
		if ns.Upgrade != nil {
			p.MuNew = ns.Upgrade.MuNew
			break
		}
	}
	return p
}

// Policy returns the spec's guard policy with the default applied.
func (s *Spec) Policy() GuardPolicy {
	if s.Guard.Policy == "" {
		return PolicyGlobal
	}
	return s.Guard.Policy
}

// Hash returns a hex digest of the spec's canonical JSON encoding, used
// as a cache key by the serving layer. It panics if the spec cannot be
// marshaled, which cannot happen for this plain data struct.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("template: marshaling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Parse decodes and validates a JSON spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, specErr("decoding spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a JSON spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("template: reading spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("template: spec %s: %w", path, err)
	}
	return s, nil
}

// PaperSpec returns the canonical scenario: the paper's Table 3 baseline
// as a template — two logical nodes, the first upgraded, global guard
// policy. Building it regenerates state spaces isomorphic to the
// handwritten internal/mdcd models.
func PaperSpec() *Spec {
	p := mdcd.DefaultParams()
	return &Spec{
		Name:     "paper-baseline",
		Theta:    p.Theta,
		Coverage: p.Coverage,
		Alpha:    p.Alpha,
		Beta:     p.Beta,
		Defaults: NodeDefaults{Lambda: p.Lambda, PExt: p.PExt, MuOld: p.MuOld},
		Guard:    GuardSpec{Policy: PolicyGlobal},
		Nodes: []NodeSpec{
			{Name: "P1", Upgrade: &UpgradeSpec{MuNew: p.MuNew}},
			{Name: "P2"},
		},
	}
}
