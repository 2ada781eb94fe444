package mdcd

import (
	"errors"
	"fmt"
	"math"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// gpJointMaxStates caps the exact joint performance-overhead model. The
// Gp state space is a product over nodes (≈5–6 local states each), so it
// explodes combinatorially; beyond the cap Generate switches to the
// mean-field approximation.
const gpJointMaxStates = 4096

// GpSolution carries the steady-state overhead solution for a scenario.
type GpSolution struct {
	// Rhos[i] is node i's forward-progress fraction ρ_i (node order).
	Rhos []float64
	// States is the joint model's state count, 0 if the mean-field
	// approximation was used.
	States int
	// MeanField records that the joint model exceeded gpJointMaxStates
	// and the per-node fixed point was used instead.
	MeanField bool
	// Space is the joint state space (nil under the mean-field path).
	Space *statespace.Space
}

// generateGp generates the scenario's G-OP performance-overhead model, the
// paper's Figure 7 generalised to N nodes. The model is guard-policy
// independent: it describes the overhead while every upgrade is under
// guard, the regime the Y(φ) translation weighs by the G-OP sojourn. Up
// to gpJointMaxStates (or sc.MaxStates, if smaller) it is the exact joint
// chain; past the cap it returns nil and the overhead measures come from
// the mean-field approximation (gpMeanField) instead.
func generateGp(sc *Scenario, nodes []node) (*gpJoint, error) {
	capStates := gpJointMaxStates
	if sc.MaxStates > 0 && sc.MaxStates < capStates {
		capStates = sc.MaxStates
	}
	j, err := buildGpJoint(sc, nodes, capStates)
	if errors.Is(err, statespace.ErrStateSpaceTooLarge) {
		return nil, nil
	}
	return j, err
}

// solve solves the G-OP performance-overhead measures on the joint chain:
// the fraction of time each node makes forward progress while the
// safeguards (acceptance tests on suspect and dirty externals,
// pre-processing checkpoints on clean recipients) are active. One
// steady-state solve serves every node.
func (j *gpJoint) solve() (*GpSolution, error) {
	structs := make([]*reward.Structure, len(j.nodes))
	for i, n := range j.nodes {
		structs[i] = j.overhead(n)
	}
	oh, err := reward.SteadyState(j.space, structs...)
	if err != nil {
		return nil, fmt.Errorf("mdcd: solving Gp overheads: %w", err)
	}
	rhos := make([]float64, len(j.nodes))
	for i, n := range j.nodes {
		rhos[n.idx] = 1 - oh[i]
	}
	return &GpSolution{Rhos: rhos, States: j.space.NumStates(), Space: j.space}, nil
}

// overhead is the Table 2 reward structure for node n's 1-ρ. An upgraded
// node loses progress while its external message is under AT — the
// paper's MARK(P1nExt)==1 for P1new. A plain node loses it while it
// checkpoints with a clean dirty bit or while its own dirty external is
// under AT — (MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 &&
// MARK(P2DB)==1) for the paper's P2. "In progress" is a non-zero stage
// count, which generalises the paper's ==1 to Erlang-staged durations.
func (j *gpJoint) overhead(n node) *reward.Structure {
	if n.Upgraded {
		ext := j.sext[n.uidx]
		return reward.NewStructure().Add(n.Name+" AT", func(mk san.Marking) bool {
			return mk.Get(ext) > 0
		}, 1)
	}
	ckpt, db, ext := j.ckpt[n.idx], j.db[n.idx], j.ext[n.idx]
	return reward.NewStructure().Add(n.Name+" ckpt or AT", func(mk san.Marking) bool {
		return (mk.Get(ckpt) > 0 && mk.Get(db) == 0) ||
			(mk.Get(ext) > 0 && mk.Get(db) == 1)
	}, 1)
}

// gpJoint is the generated joint overhead model: its space plus the place
// and activity handles, indexed like gdModel's (by uidx for upgraded
// nodes, by idx for plain ones).
type gpJoint struct {
	space *statespace.Space
	nodes []node

	sready, sext, ocheck, odb []*san.Place
	ready, ext, ckpt, db      []*san.Place

	sat, ockpt  []*san.Activity // upgraded: AT, shadow checkpoint
	at, ckptAct []*san.Activity // plain: AT, checkpoint
}

// buildGpJoint generates the exact joint overhead model, bounded by
// maxStates (0 keeps the statespace default).
//
// Per upgraded node u (suspect): "<u>.sready" (1 token) / "<u>.sext" — the
// new replica's send/AT cycle, every external AT'd — plus the shadow old
// replica's confidence state "<u>.odb" and checkpoint-in-progress
// "<u>.ocheck". Per plain node j: "<j>.ready" (1) / "<j>.ext" / "<j>.db" /
// "<j>.ckpt"; j blocks (no sends) while its checkpoint is in progress,
// and only dirty externals are AT'd. Any completed AT validates the
// sender's state and clears every dirty bit downstream (confidence-chain
// revalidation).
//
// AT and checkpoint durations are Erlang-k (k = sc.Stages, default 1,
// the paper's exponential) with unchanged mean: an operation loads k
// stage tokens into its in-progress place and completes one stage at
// rate k·α (or k·β); only the final stage finishes it. The overhead
// predicates read "in progress" as a non-zero stage count, which
// coincides with the paper's MARK(..)==1 for k=1.
func buildGpJoint(sc *Scenario, nodes []node, maxStates int) (*gpJoint, error) {
	stages := sc.Stages
	if stages == 0 {
		stages = 1
	}
	k := float64(stages)
	nUp := 0
	for _, n := range nodes {
		if n.Upgraded {
			nUp++
		}
	}
	j := &gpJoint{
		nodes:  nodes,
		sready: make([]*san.Place, nUp),
		sext:   make([]*san.Place, nUp),
		ocheck: make([]*san.Place, nUp),
		odb:    make([]*san.Place, nUp),
		sat:    make([]*san.Activity, nUp),
		ockpt:  make([]*san.Activity, nUp),

		ready:   make([]*san.Place, len(nodes)),
		ext:     make([]*san.Place, len(nodes)),
		ckpt:    make([]*san.Place, len(nodes)),
		db:      make([]*san.Place, len(nodes)),
		at:      make([]*san.Activity, len(nodes)),
		ckptAct: make([]*san.Activity, len(nodes)),
	}
	sready, sext, ocheck, odb := j.sready, j.sext, j.ocheck, j.odb
	ready, ext, ckpt, db := j.ready, j.ext, j.ckpt, j.db

	m := san.NewModel("Gp:" + sc.Name)
	for _, n := range nodes {
		if n.Upgraded {
			sready[n.uidx] = m.AddPlace(n.Name+".sready", 1)
			sext[n.uidx] = m.AddPlace(n.Name+".sext", 0)
			ocheck[n.uidx] = m.AddPlace(n.Name+".ocheck", 0)
			odb[n.uidx] = m.AddPlace(n.Name+".odb", 0)
		} else {
			ready[n.idx] = m.AddPlace(n.Name+".ready", 1)
			ext[n.idx] = m.AddPlace(n.Name+".ext", 0)
			ckpt[n.idx] = m.AddPlace(n.Name+".ckpt", 0)
			db[n.idx] = m.AddPlace(n.Name+".db", 0)
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
		if r.Upgraded {
			if mk.Get(odb[r.uidx]) == 0 && mk.Get(ocheck[r.uidx]) == 0 {
				mk.Set(ocheck[r.uidx], stages)
			}
			return
		}
		if mk.Get(db[r.idx]) == 0 && mk.Get(ckpt[r.idx]) == 0 {
			mk.Set(ckpt[r.idx], stages)
		}
	}
	// complete adds the stage-by-stage safeguard activity draining pl at
	// the given per-operation rate; done runs when the last stage ends.
	complete := func(name string, pl *san.Place, rate float64, done san.MutateFunc) *san.Activity {
		a := m.AddTimedActivity(name, san.ConstRate(k*rate)).AddInputArc(pl, 1)
		a.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
			if mk.Get(pl) > 0 {
				return // stages remain
			}
			done(mk)
		})
		return a
	}

	// Activities in Figure 7's order: node by node, a plain node's
	// checkpoint (which blocks its sending) before its send and AT, and
	// the shadow replicas' checkpoints last. Exploration follows activity
	// order, so the paper scenario's states come out numbered as in the
	// paper's RMGp.
	for _, n := range nodes {
		n := n
		peers := make([]node, 0, len(nodes)-1)
		for _, o := range nodes {
			if o.idx != n.idx {
				peers = append(peers, o)
			}
		}
		split := (1 - n.PExt) / float64(len(nodes)-1)

		if n.Upgraded {
			msg := m.AddTimedActivity(n.Name+".msg", san.ConstRate(n.Lambda)).
				AddInputArc(sready[n.uidx], 1)
			// External: always AT'd.
			msg.AddCase(san.ConstProb(n.PExt)).AddOutputArc(sext[n.uidx], stages)
			// Internal: sender continues; the recipient (always
			// potentially contaminated by a suspect) may need to
			// checkpoint first.
			for _, r := range peers {
				r := r
				msg.AddCase(san.ConstProb(split)).
					AddOutputArc(sready[n.uidx], 1).
					AddOutputFunc(func(mk san.Marking) { contaminateCkpt(r, mk) })
			}
			j.sat[n.uidx] = complete(n.Name+".at", sext[n.uidx], sc.Alpha, func(mk san.Marking) {
				mk.Set(sready[n.uidx], 1)
				clearDBs(mk)
			})
			continue
		}

		j.ckptAct[n.idx] = complete(n.Name+".ckpt", ckpt[n.idx], sc.Beta, func(mk san.Marking) {
			mk.Set(db[n.idx], 1)
		})
		msg := m.AddTimedActivity(n.Name+".msg", san.ConstRate(n.Lambda)).
			AddInputArc(ready[n.idx], 1).
			AddInputGate("notCheckpointing", func(mk san.Marking) bool {
				return mk.Get(ckpt[n.idx]) == 0
			}, nil)
		// External while dirty: AT required.
		msg.AddCase(func(mk san.Marking) float64 {
			if mk.Get(db[n.idx]) == 1 {
				return n.PExt
			}
			return 0
		}).AddOutputArc(ext[n.idx], stages)
		// External while clean: no AT.
		msg.AddCase(func(mk san.Marking) float64 {
			if mk.Get(db[n.idx]) == 0 {
				return n.PExt
			}
			return 0
		}).AddOutputArc(ready[n.idx], 1)
		// Internal: contaminating only while dirty.
		for _, r := range peers {
			r := r
			msg.AddCase(san.ConstProb(split)).
				AddOutputArc(ready[n.idx], 1).
				AddOutputFunc(func(mk san.Marking) {
					if mk.Get(db[n.idx]) == 1 {
						contaminateCkpt(r, mk)
					}
				})
		}
		j.at[n.idx] = complete(n.Name+".at", ext[n.idx], sc.Alpha, func(mk san.Marking) {
			mk.Set(ready[n.idx], 1)
			clearDBs(mk)
		})
	}
	for _, n := range nodes {
		if n.Upgraded {
			// Shadow old replica's checkpoint (triggered by dirty
			// internal traffic) completes into the dirty state.
			n := n
			j.ockpt[n.uidx] = complete(n.Name+".ockpt", ocheck[n.uidx], sc.Beta, func(mk san.Marking) {
				mk.Set(odb[n.uidx], 1)
			})
		}
	}

	var err error
	j.space, err = statespace.Generate(m, statespace.Options{MaxStates: maxStates})
	if err != nil {
		return nil, fmt.Errorf("mdcd: generating Gp space: %w", err)
	}
	return j, nil
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
// marginals, the approximation past gpJointMaxStates. Suspects are exact
// and self-contained: their send/AT cycle never blocks on peers, so
// ρ_u = α/(α + λ_u·p_ext). Each plain node is a
// 5-state chain driven by two aggregate Poisson influences — the rate of
// potentially-contaminated internal messages reaching it (checkpoint
// triggers) and the rate of peer AT completions (dirty-bit clears) —
// both computed from the other marginals and iterated to convergence.
func gpMeanField(sc *Scenario, nodes []node) (*GpSolution, error) {
	alpha, beta := sc.Alpha, sc.Beta
	nRecv := float64(len(nodes) - 1)

	rhos := make([]float64, len(nodes))
	extOcc := make([]float64, len(nodes))    // P(node's AT in progress)
	sendDirty := make([]float64, len(nodes)) // P(sending position ∧ dirty)

	var plains []int
	for _, n := range nodes {
		if n.Upgraded {
			extOcc[n.idx] = n.Lambda * n.PExt / (alpha + n.Lambda*n.PExt)
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
				trig += o.Lambda * (1 - o.PExt) / nRecv * sendDirty[o.idx]
				clear += alpha * extOcc[o.idx]
			}
			next, err := solveMarginal(nj.Lambda*nj.PExt, alpha, beta, trig, clear)
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
			return &GpSolution{Rhos: rhos, MeanField: true}, nil
		}
	}
	return nil, fmt.Errorf("mdcd: Gp mean-field fixed point did not converge in %d iterations", maxIter)
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
			return nil, fmt.Errorf("mdcd: singular Gp marginal system")
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
			return nil, fmt.Errorf("mdcd: Gp marginal probability %g out of range", out[s])
		}
	}
	return out, nil
}
