package mdcd

import (
	"fmt"

	"guardedop/internal/modelcheck"
	"guardedop/internal/robust"
	"guardedop/internal/statespace"
)

// Models is one generated and verified scenario: the constituent reward
// models of the successive translation and the solved overhead measures.
type Models struct {
	// Gd is the G-OP dependability model; NdNew and NdOld the normal-mode
	// models with upgraded and all-proven software.
	Gd           *RMGd
	NdNew, NdOld *RMNd
	// Gp is the solved overhead model (ρ per node). It is nil when a
	// model check failed, since nothing is solved on an unverified space.
	Gp *GpSolution
	// Reports holds one modelcheck report per generated space, in the
	// order RMGd, RMGp (only when the joint Gp was generated),
	// RMNd(mu_new), RMNd(mu_old).
	Reports []*modelcheck.Report

	joint *gpJoint // nil on the mean-field path
}

// States sums the generated state spaces: Gd, the Nd pair, and the joint
// Gp when it was generated.
func (m *Models) States() int {
	n := m.Gd.Space.NumStates() + m.NdNew.Space.NumStates() + m.NdOld.Space.NumStates()
	if m.joint != nil {
		n += m.joint.space.NumStates()
	}
	return n
}

// Generate runs every generator of the model family on sc — Gd, the joint
// Gp (or its mean-field stand-in past gpJointMaxStates), and Nd for the
// upgraded and the proven configuration — and statically verifies
// each generated state space exactly once with internal/modelcheck
// (generator validity, reachability, absorbing/ergodic structure) before
// anything is solved on it. Only when every check passes does it solve
// the overhead measures.
//
// A failed check returns the models and every report together with an
// error wrapping robust.ErrInvariant, so callers can render the findings;
// a generation failure returns nil models.
func Generate(sc Scenario) (*Models, error) {
	nodes, err := sc.index()
	if err != nil {
		return nil, err
	}
	m := &Models{}
	if m.Gd, _, err = buildGd(&sc); err != nil {
		return nil, err
	}
	if m.joint, err = generateGp(&sc, nodes); err != nil {
		return nil, err
	}
	if m.NdNew, _, err = buildNd(&sc, true); err != nil {
		return nil, err
	}
	if m.NdOld, _, err = buildNd(&sc, false); err != nil {
		return nil, err
	}

	spaces := []*statespace.Space{m.Gd.Space}
	names := []string{"RMGd"}
	if m.joint != nil {
		spaces = append(spaces, m.joint.space)
		names = append(names, "RMGp")
	}
	spaces = append(spaces, m.NdNew.Space, m.NdOld.Space)
	names = append(names, "RMNd(mu_new)", "RMNd(mu_old)")
	var failed error
	for i, sp := range spaces {
		rep := modelcheck.CheckSpace(names[i], sp, modelcheck.Options{})
		m.Reports = append(m.Reports, rep)
		if failed == nil && !rep.OK() {
			failed = fmt.Errorf("mdcd: scenario %q: %w: %w", sc.Name, robust.ErrInvariant, rep.Err())
		}
	}
	if failed != nil {
		return m, failed
	}

	if m.joint != nil {
		m.Gp, err = m.joint.solve()
	} else {
		m.Gp, err = gpMeanField(&sc, nodes)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// CheckModels builds the paper's constituent reward models for p through
// Generate and adds the Table 1/2 reward-bound checks to its reports: the
// RMGd/RMNd first-passage models must have valid generators whose every
// state reaches the absorbing set, the RMGp steady-state model must be
// irreducible, and every Table 1/2 reward structure must stay within the
// [0, 1] bounds that keep Y(φ) an expectation ratio (Eq. 1).
//
// It returns the per-model reports (always, so callers can render them)
// and a non-nil error wrapping robust.ErrInvariant if any model fails.
func CheckModels(p Params) ([]*modelcheck.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := Generate(PaperScenario(p))
	if m == nil {
		return nil, fmt.Errorf("mdcd: building the paper models: %w", err)
	}
	// The paper's 36-state Gp is always the joint model, so the reports
	// are RMGd, RMGp, RMNd(mu_new), RMNd(mu_old).
	reports := m.Reports
	for name, s := range m.Gd.Table1Structures() {
		reports[0].CheckRewardRates(name, s.RateVector(m.Gd.Space), 0, 1)
	}
	for i, n := range m.joint.nodes {
		reports[1].CheckRewardRates(fmt.Sprintf("1-rho%d", i+1), m.joint.overhead(n).RateVector(m.joint.space), 0, 1)
	}
	reports[2].CheckRewardRates("P(no failure)", m.NdNew.NoFailureRates(), 0, 1)
	reports[3].CheckRewardRates("P(no failure)", m.NdOld.NoFailureRates(), 0, 1)

	for _, r := range reports {
		if err := r.Err(); err != nil {
			return reports, fmt.Errorf("%w: %w", robust.ErrInvariant, err)
		}
	}
	return reports, nil
}
