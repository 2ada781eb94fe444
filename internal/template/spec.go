// Package template describes GSU (guarded software-upgrade) scenarios as
// declarative JSON specs: N nodes, multiple simultaneous upgrades,
// alternative guard policies, and heterogeneous per-node rates.
//
// Following Montecchi et al.'s SAN Templates approach, the three
// constituent reward models (the guarded-operation dependability model
// Gd, the performance-overhead model Gp, and the normal-mode models Nd)
// are generated from a resolved scenario by internal/mdcd — the one
// generator of the model family. This package parses, validates and
// resolves a Spec into that scenario; Build runs mdcd.Generate, which
// generates the models, verifies every generated state space once with
// internal/modelcheck and solves the overhead measures, and the results
// go to internal/core, whose translation layer (Eqs. 5–21 generalized to
// N active processes) runs unchanged.
//
// The canonical two-node spec (PaperSpec) resolves to the paper's
// scenario, so building it yields the paper's models — the same chains
// mdcd.BuildRMGd, BuildRMGp and BuildRMNd return.
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

// GuardPolicy and its constants alias the generator's policy enum, so a
// spec's guard.policy field is the mdcd value itself.
type GuardPolicy = mdcd.GuardPolicy

const (
	PolicyGlobal     = mdcd.PolicyGlobal
	PolicyPerNode    = mdcd.PolicyPerNode
	PolicyStaged     = mdcd.PolicyStaged
	PolicyAbortRetry = mdcd.PolicyAbortRetry
)

// Policies lists every supported guard policy.
func Policies() []GuardPolicy { return mdcd.Policies() }

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

// resolve applies defaults, validates the node list and returns the
// resolved scenario the mdcd generators take.
func (s *Spec) resolve() (mdcd.Scenario, error) {
	sc := mdcd.Scenario{
		Name:      s.Name,
		Coverage:  s.Coverage,
		Alpha:     s.Alpha,
		Beta:      s.Beta,
		Policy:    s.Policy(),
		Retries:   s.Guard.Retries,
		MaxStates: s.Limits.MaxStates,
	}
	if len(s.Nodes) < 2 {
		return sc, specErr("scenario needs at least 2 nodes, got %d", len(s.Nodes))
	}
	sc.Nodes = make([]mdcd.Node, len(s.Nodes))
	seen := make(map[string]bool, len(s.Nodes))
	upgrades := 0
	for i, ns := range s.Nodes {
		if !nodeNameRe.MatchString(ns.Name) {
			return sc, specErr("node %d name %q is not a valid identifier", i, ns.Name)
		}
		if seen[ns.Name] {
			return sc, specErr("duplicate node name %q", ns.Name)
		}
		seen[ns.Name] = true
		n := mdcd.Node{Name: ns.Name, Lambda: ns.Lambda, PExt: ns.PExt, MuOld: ns.MuOld}
		if n.Lambda == 0 {
			n.Lambda = s.Defaults.Lambda
		}
		if n.PExt == 0 {
			n.PExt = s.Defaults.PExt
		}
		if n.MuOld == 0 {
			n.MuOld = s.Defaults.MuOld
		}
		if err := checkRate(fmt.Sprintf("node %q lambda", n.Name), n.Lambda, false); err != nil {
			return sc, err
		}
		if math.IsNaN(n.PExt) || n.PExt <= 0 || n.PExt >= 1 {
			return sc, specErr("node %q p_ext = %g out of (0, 1)", n.Name, n.PExt)
		}
		if err := checkRate(fmt.Sprintf("node %q mu_old", n.Name), n.MuOld, true); err != nil {
			return sc, err
		}
		if ns.Upgrade != nil {
			n.Upgraded = true
			n.MuNew = ns.Upgrade.MuNew
			upgrades++
			if err := checkRate(fmt.Sprintf("node %q mu_new", n.Name), n.MuNew, true); err != nil {
				return sc, err
			}
		}
		sc.Nodes[i] = n
	}
	if upgrades == 0 {
		return sc, specErr("scenario has no upgraded node")
	}
	if upgrades == len(sc.Nodes) {
		return sc, specErr("scenario needs at least one plain (non-upgraded) node")
	}
	return sc, nil
}

// Params derives the translation-layer parameter set the analyzer needs
// from the resolved scenario (mdcd.Scenario.Params): θ, the safeguard
// rates, and the first upgraded node's rates with the defaults applied as
// the scenario's baseline (heterogeneous per-node rates live in the
// generated models themselves). The defaults block is optional when every
// node carries its own rates. An invalid spec yields the zero Params.
func (s *Spec) Params() mdcd.Params {
	sc, err := s.resolve()
	if err != nil {
		return mdcd.Params{}
	}
	return sc.Params(s.Theta)
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
// policy. It resolves to the same scenario mdcd.BuildRMGd, BuildRMGp and
// BuildRMNd generate, so building it yields the paper's models.
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
