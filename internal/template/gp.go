package template

import (
	"errors"
	"fmt"
	"math"

	"guardedop/internal/compose"
	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// gpJointMaxStates caps the exact joint performance-overhead model. The
// Gp state space is a product over nodes (≈5–6 local states each), so it
// explodes combinatorially; beyond the cap buildGp switches to the
// mean-field approximation.
const gpJointMaxStates = 4096

// gpResult carries the steady-state overhead solution for a scenario.
type gpResult struct {
	// Rhos[i] is node i's forward-progress fraction ρ_i (spec node order).
	Rhos []float64
	// States is the joint model's state count, 0 if the mean-field
	// approximation was used.
	States int
	// MeanField records that the joint model exceeded gpJointMaxStates
	// and the per-node fixed point was used instead.
	MeanField bool
	// Space is the joint state space (nil under the mean-field path),
	// exposed so Build can model-check it.
	Space *statespace.Space
}

// buildGp solves the scenario's G-OP performance-overhead measures: the
// fraction of time each node makes forward progress while the safeguards
// (acceptance tests on suspect and dirty externals, pre-processing
// checkpoints on clean recipients) are active.
//
// The model generalises the paper's Figure 7 and is guard-policy
// independent: it describes the overhead while every upgrade is under
// guard, the regime the Y(φ) translation weighs by the G-OP sojourn. Up
// to gpJointMaxStates the exact joint chain is generated and solved; past
// it a standard mean-field fixed point over the per-node marginals is
// used (each node sees the others only through their steady-state
// sending and AT-completion rates).
func buildGp(spec *Spec, nodes []node) (*gpResult, error) {
	res, err := buildGpJoint(spec, nodes)
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, statespace.ErrStateSpaceTooLarge) {
		return nil, err
	}
	rhos, mfErr := gpMeanField(spec, nodes)
	if mfErr != nil {
		return nil, mfErr
	}
	return &gpResult{Rhos: rhos, MeanField: true}, nil
}

// buildGpJoint generates and solves the exact joint overhead model.
//
// Per upgraded node u (suspect): "<u>.sready" (1 token) / "<u>.sext" — the
// new replica's send/AT cycle, every external AT'd — plus the shadow old
// replica's confidence state "<u>.odb" and checkpoint-in-progress
// "<u>.ocheck". Per plain node j: "<j>.ready" (1) / "<j>.ext" / "<j>.db" /
// "<j>.ckpt"; j blocks (no sends) while its checkpoint is in progress,
// and only dirty externals are AT'd. Any completed AT validates the
// sender's state and clears every dirty bit downstream (the confidence
// chain revalidation of the handwritten RMGp).
func buildGpJoint(spec *Spec, nodes []node) (*gpResult, error) {
	nUp := 0
	for _, n := range nodes {
		if n.upgraded {
			nUp++
		}
	}
	sready := make([]*san.Place, nUp)
	sext := make([]*san.Place, nUp)
	ocheck := make([]*san.Place, nUp)
	odb := make([]*san.Place, nUp)
	ready := make([]*san.Place, len(nodes))
	ext := make([]*san.Place, len(nodes))
	ckpt := make([]*san.Place, len(nodes))
	db := make([]*san.Place, len(nodes))

	var shared []compose.SharedPlaceSpec
	for _, n := range nodes {
		if n.upgraded {
			shared = append(shared,
				compose.SharedPlaceSpec{Name: n.name + ".sready", Initial: 1},
				compose.SharedPlaceSpec{Name: n.name + ".sext"},
				compose.SharedPlaceSpec{Name: n.name + ".ocheck"},
				compose.SharedPlaceSpec{Name: n.name + ".odb"})
		} else {
			shared = append(shared,
				compose.SharedPlaceSpec{Name: n.name + ".ready", Initial: 1},
				compose.SharedPlaceSpec{Name: n.name + ".ext"},
				compose.SharedPlaceSpec{Name: n.name + ".ckpt"},
				compose.SharedPlaceSpec{Name: n.name + ".db"})
		}
	}

	bound := false
	bind := func(sh compose.Shared) {
		if bound {
			return
		}
		bound = true
		for _, n := range nodes {
			if n.upgraded {
				sready[n.uidx] = sh[n.name+".sready"]
				sext[n.uidx] = sh[n.name+".sext"]
				ocheck[n.uidx] = sh[n.name+".ocheck"]
				odb[n.uidx] = sh[n.name+".odb"]
			} else {
				ready[n.idx] = sh[n.name+".ready"]
				ext[n.idx] = sh[n.name+".ext"]
				ckpt[n.idx] = sh[n.name+".ckpt"]
				db[n.idx] = sh[n.name+".db"]
			}
		}
	}
	// clearDBs is the confidence-chain revalidation on AT completion.
	clearDBs := func(mk san.Marking) {
		for _, pl := range odb {
			mk.Set(pl, 0)
		}
		for _, pl := range db {
			if pl != nil {
				mk.Set(pl, 0)
			}
		}
	}
	// contaminateCkpt triggers recipient r's pre-processing checkpoint for
	// a potentially contaminated sender, unless r's affected state is
	// already dirty or already checkpointing. Upgraded recipients
	// checkpoint only their shadow (the new replica is itself a suspect
	// and never checkpoints).
	contaminateCkpt := func(r node, mk san.Marking) {
		if r.upgraded {
			if mk.Get(odb[r.uidx]) == 0 && mk.Get(ocheck[r.uidx]) == 0 {
				mk.Set(ocheck[r.uidx], 1)
			}
			return
		}
		if mk.Get(db[r.idx]) == 0 && mk.Get(ckpt[r.idx]) == 0 {
			mk.Set(ckpt[r.idx], 1)
		}
	}

	parts := make(map[string]compose.Template, len(nodes))
	for _, n := range nodes {
		n := n
		parts[n.name] = func(m *san.Model, prefix string, sh compose.Shared) error {
			bind(sh)
			peers := make([]node, 0, len(nodes)-1)
			for _, o := range nodes {
				if o.idx != n.idx {
					peers = append(peers, o)
				}
			}
			split := (1 - n.pext) / float64(len(nodes)-1)

			if n.upgraded {
				u := n
				msg := m.AddTimedActivity(prefix+"msg", san.ConstRate(u.lambda)).
					AddInputArc(sready[u.uidx], 1)
				// External: always AT'd.
				msg.AddCase(san.ConstProb(u.pext)).AddOutputArc(sext[u.uidx], 1)
				// Internal: sender continues; the recipient (always
				// potentially contaminated by a suspect) may need to
				// checkpoint first.
				for _, r := range peers {
					r := r
					msg.AddCase(san.ConstProb(split)).
						AddOutputArc(sready[u.uidx], 1).
						AddOutputFunc(func(mk san.Marking) { contaminateCkpt(r, mk) })
				}

				at := m.AddTimedActivity(prefix+"at", san.ConstRate(spec.Alpha)).
					AddInputArc(sext[u.uidx], 1)
				at.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
					mk.Set(sready[u.uidx], 1)
					clearDBs(mk)
				})

				// Shadow old replica's checkpoint (triggered by dirty
				// internal traffic) completes into the dirty state.
				ock := m.AddTimedActivity(prefix+"ockpt", san.ConstRate(spec.Beta)).
					AddInputArc(ocheck[u.uidx], 1)
				ock.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
					mk.Set(odb[u.uidx], 1)
				})
				return nil
			}

			j := n
			msg := m.AddTimedActivity(prefix+"msg", san.ConstRate(j.lambda)).
				AddInputArc(ready[j.idx], 1).
				AddInputGate("notCheckpointing", func(mk san.Marking) bool {
					return mk.Get(ckpt[j.idx]) == 0
				}, nil)
			// External while dirty: AT required.
			msg.AddCase(func(mk san.Marking) float64 {
				if mk.Get(db[j.idx]) == 1 {
					return j.pext
				}
				return 0
			}).AddOutputArc(ext[j.idx], 1)
			// External while clean: no AT.
			msg.AddCase(func(mk san.Marking) float64 {
				if mk.Get(db[j.idx]) == 0 {
					return j.pext
				}
				return 0
			}).AddOutputArc(ready[j.idx], 1)
			// Internal: contaminating only while dirty.
			for _, r := range peers {
				r := r
				msg.AddCase(san.ConstProb(split)).
					AddOutputArc(ready[j.idx], 1).
					AddOutputFunc(func(mk san.Marking) {
						if mk.Get(db[j.idx]) == 1 {
							contaminateCkpt(r, mk)
						}
					})
			}

			at := m.AddTimedActivity(prefix+"at", san.ConstRate(spec.Alpha)).
				AddInputArc(ext[j.idx], 1)
			at.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
				mk.Set(ready[j.idx], 1)
				clearDBs(mk)
			})

			ck := m.AddTimedActivity(prefix+"ckpt", san.ConstRate(spec.Beta)).
				AddInputArc(ckpt[j.idx], 1)
			ck.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
				mk.Set(db[j.idx], 1)
			})
			return nil
		}
	}

	m, _, err := compose.Join("Gp:"+spec.Name, shared, parts)
	if err != nil {
		return nil, fmt.Errorf("template: composing Gp: %w", err)
	}
	capStates := gpJointMaxStates
	if spec.Limits.MaxStates > 0 && spec.Limits.MaxStates < capStates {
		capStates = spec.Limits.MaxStates
	}
	sp, err := statespace.Generate(m, statespace.Options{MaxStates: capStates})
	if err != nil {
		if errors.Is(err, statespace.ErrStateSpaceTooLarge) {
			return nil, err
		}
		return nil, fmt.Errorf("template: generating Gp space: %w", err)
	}

	structs := make([]*reward.Structure, len(nodes))
	for i, n := range nodes {
		if n.upgraded {
			pl := sext[n.uidx]
			structs[i] = reward.NewStructure().Add(n.name+" AT", func(mk san.Marking) bool {
				return mk.Get(pl) > 0
			}, 1)
		} else {
			ckptPl, dbPl, extPl := ckpt[n.idx], db[n.idx], ext[n.idx]
			structs[i] = reward.NewStructure().Add(n.name+" ckpt or AT", func(mk san.Marking) bool {
				return (mk.Get(ckptPl) > 0 && mk.Get(dbPl) == 0) ||
					(mk.Get(extPl) > 0 && mk.Get(dbPl) == 1)
			}, 1)
		}
	}
	// One steady-state solve of the joint chain serves every node.
	oh, err := reward.SteadyState(sp, structs...)
	if err != nil {
		return nil, fmt.Errorf("template: solving Gp overheads: %w", err)
	}
	rhos := make([]float64, len(nodes))
	for i, n := range nodes {
		rhos[n.idx] = 1 - oh[i]
	}
	return &gpResult{Rhos: rhos, States: sp.NumStates(), Space: sp}, nil
}

// Mean-field marginal states of a plain node (position × dirty bit; the
// (ckpt, db=1) combination is unreachable: checkpoints are triggered and
// run only while clean).
const (
	mfReadyClean = iota // ready, db=0
	mfReadyDirty        // ready, db=1
	mfCkpt              // checkpoint in progress (db=0)
	mfExtDirty          // own AT in progress, db=1
	mfExtClean          // own AT in progress, db cleared by a peer's AT
	mfStates
)

// gpMeanField solves the overhead measures by a fixed point over per-node
// marginals. Suspects are exact and self-contained: their send/AT cycle
// never blocks on peers, so ρ_u = α/(α + λ_u·p_ext). Each plain node is a
// 5-state chain driven by two aggregate Poisson influences — the rate of
// potentially-contaminated internal messages reaching it (checkpoint
// triggers) and the rate of peer AT completions (dirty-bit clears) —
// both computed from the other marginals and iterated to convergence.
func gpMeanField(spec *Spec, nodes []node) ([]float64, error) {
	alpha, beta := spec.Alpha, spec.Beta
	nRecv := float64(len(nodes) - 1)

	rhos := make([]float64, len(nodes))
	extOcc := make([]float64, len(nodes))    // P(node's AT in progress)
	sendDirty := make([]float64, len(nodes)) // P(sending position ∧ dirty)

	var plains []int
	for _, n := range nodes {
		if n.upgraded {
			extOcc[n.idx] = n.lambda * n.pext / (alpha + n.lambda*n.pext)
			rhos[n.idx] = 1 - extOcc[n.idx]
			sendDirty[n.idx] = 1 - extOcc[n.idx] // a suspect is always dirty
		} else {
			plains = append(plains, n.idx)
		}
	}

	pi := make([][]float64, len(nodes))
	for _, j := range plains {
		pi[j] = []float64{1, 0, 0, 0, 0}
	}

	const (
		maxIter = 1000
		tol     = 1e-12
	)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for _, j := range plains {
			nj := nodes[j]
			// Aggregate influences from every other node.
			var trig, clear float64
			for _, o := range nodes {
				if o.idx == j {
					continue
				}
				trig += o.lambda * (1 - o.pext) / nRecv * sendDirty[o.idx]
				clear += alpha * extOcc[o.idx]
			}
			next, err := solveMarginal(nj.lambda*nj.pext, alpha, beta, trig, clear)
			if err != nil {
				return nil, err
			}
			for s := 0; s < mfStates; s++ {
				if d := math.Abs(next[s] - pi[j][s]); d > maxDelta {
					maxDelta = d
				}
			}
			pi[j] = next
			extOcc[j] = next[mfExtDirty] + next[mfExtClean]
			sendDirty[j] = next[mfReadyDirty]
		}
		if maxDelta < tol {
			for _, j := range plains {
				rhos[j] = 1 - (pi[j][mfCkpt] + pi[j][mfExtDirty])
			}
			return rhos, nil
		}
	}
	return nil, fmt.Errorf("template: Gp mean-field fixed point did not converge in %d iterations", maxIter)
}

// solveMarginal computes the steady state of one plain node's marginal
// chain given its own dirty-external rate lamExt = λ·p_ext, the safeguard
// rates, and the aggregate trigger/clear influences.
func solveMarginal(lamExt, alpha, beta, trig, clear float64) ([]float64, error) {
	// Generator (row = from, column = to).
	var q [mfStates][mfStates]float64
	set := func(from, to int, rate float64) {
		q[from][to] += rate
		q[from][from] -= rate
	}
	set(mfReadyClean, mfCkpt, trig)
	set(mfCkpt, mfReadyDirty, beta)
	set(mfReadyDirty, mfExtDirty, lamExt)
	set(mfReadyDirty, mfReadyClean, clear)
	set(mfExtDirty, mfReadyClean, alpha) // own AT completes, clearing own db
	set(mfExtDirty, mfExtClean, clear)
	set(mfExtClean, mfReadyClean, alpha)

	// Solve πQ = 0, Σπ = 1 by Gaussian elimination on Qᵀ with the last
	// equation replaced by normalisation.
	var a [mfStates][mfStates + 1]float64
	for col := 0; col < mfStates; col++ {
		for row := 0; row < mfStates; row++ {
			a[col][row] = q[row][col]
		}
	}
	for row := 0; row < mfStates; row++ {
		a[mfStates-1][row] = 1
	}
	a[mfStates-1][mfStates] = 1

	for c := 0; c < mfStates; c++ {
		piv := c
		for r := c + 1; r < mfStates; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[piv][c]) {
				piv = r
			}
		}
		if math.Abs(a[piv][c]) < 1e-300 {
			return nil, fmt.Errorf("template: singular Gp marginal system")
		}
		a[c], a[piv] = a[piv], a[c]
		for r := 0; r < mfStates; r++ {
			if r == c || a[r][c] == 0 {
				continue
			}
			f := a[r][c] / a[c][c]
			for k := c; k <= mfStates; k++ {
				a[r][k] -= f * a[c][k]
			}
		}
	}
	out := make([]float64, mfStates)
	for s := 0; s < mfStates; s++ {
		out[s] = a[s][mfStates] / a[s][s]
		if out[s] < 0 && out[s] > -1e-12 {
			out[s] = 0
		}
		if out[s] < 0 || math.IsNaN(out[s]) {
			return nil, fmt.Errorf("template: Gp marginal probability %g out of range", out[s])
		}
	}
	return out, nil
}
