package mdcd

import (
	"fmt"

	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// BuildNd generates the scenario's normal-mode dependability model (the
// paper's Figure 8 generalised to N nodes): every node runs exactly one
// software version with no safeguards. With newVersions true the
// upgraded nodes run their new version (the model behind P(S1), no
// failure during [0, θ]); with false every node runs proven software
// (the post-recovery model behind p_θ). The policy and safeguard fields
// of sc play no part.
func BuildNd(sc Scenario, newVersions bool) (*RMNd, error) {
	r, _, err := buildNd(&sc, newVersions)
	return r, err
}

// buildNd is BuildNd returning the per-node contamination places (in
// node order) as well.
func buildNd(sc *Scenario, newVersions bool) (*RMNd, []*san.Place, error) {
	nodes, err := sc.index()
	if err != nil {
		return nil, nil, err
	}
	m := san.NewModel("Nd(" + variant(newVersions) + "):" + sc.Name)
	failure := m.AddPlace(plFailure, 0)
	ctn := make([]*san.Place, len(nodes))
	for _, n := range nodes {
		ctn[n.idx] = m.AddPlace(n.Name+".ctn", 0)
	}
	alive := func(mk san.Marking) bool { return mk.Get(failure) == 0 }
	fail := func(mk san.Marking) {
		mk.Set(failure, 1)
		for _, pl := range ctn {
			mk.Set(pl, 0)
		}
	}

	// Activities in Figure 8's order — every node's fault manifestation,
	// then every node's message sending — so the paper scenario's states
	// come out numbered as in the paper's RMNd.
	for _, n := range nodes {
		mu := n.MuOld
		if newVersions && n.Upgraded {
			mu = n.MuNew
		}
		self := ctn[n.idx]
		m.AddTimedActivity(n.Name+".fm", san.ConstRate(mu)).
			AddInputGate("enabled", func(mk san.Marking) bool {
				return alive(mk) && mk.Get(self) == 0
			}, nil).
			AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(self, 1) })
	}
	for _, n := range nodes {
		n, self := n, ctn[n.idx]
		msg := m.AddTimedActivity(n.Name+".msg", san.ConstRate(n.Lambda)).
			AddInputGate("alive", alive, nil)
		msg.AddCase(func(mk san.Marking) float64 { // erroneous external
			if mk.Get(self) == 1 {
				return n.PExt
			}
			return 0
		}).AddOutputFunc(fail)
		msg.AddCase(func(mk san.Marking) float64 { // clean external
			if mk.Get(self) == 0 {
				return n.PExt
			}
			return 0
		})
		for _, r := range nodes {
			if r.idx == n.idx {
				continue
			}
			dst := ctn[r.idx]
			msg.AddCase(func(mk san.Marking) float64 { // internal to r
				return (1 - n.PExt) / float64(len(nodes)-1)
			}).AddOutputFunc(func(mk san.Marking) {
				if mk.Get(self) == 1 {
					mk.Set(dst, 1)
				}
			})
		}
	}

	sp, err := statespace.Generate(m, statespace.Options{MaxStates: sc.MaxStates})
	if err != nil {
		return nil, nil, fmt.Errorf("mdcd: generating Nd(%s) space: %w", variant(newVersions), err)
	}
	r := &RMNd{Space: sp, Failure: failure, noFailRates: make([]float64, sp.NumStates())}
	for i, mk := range sp.States {
		if mk.Get(failure) == 0 {
			r.noFailRates[i] = 1
		}
	}
	return r, ctn, nil
}

// variant labels the normal-mode configuration in model names.
func variant(newVersions bool) string {
	if newVersions {
		return "new"
	}
	return "old"
}
