package mdcd

import (
	"fmt"

	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// Global dependability place names. The per-node places are scoped by the
// node name: "<node>.ctn" (plain), "<node>.ctnN"/"<node>.ctnO" (upgraded
// new and old replica), and the per-node policy's "<node>.retired". Node
// names contain no dot, so no two places can collide.
const (
	plDetected = "detected"
	plFailure  = "failure"
	plDirty    = "dirty_bit"
	plStage    = "stage"
	plRetry    = "retry"
)

// gdModel is the generated scenario dependability model: the place
// handles the activity closures share.
type gdModel struct {
	sc    *Scenario
	nodes []node
	rs    float64 // recovery success probability

	detected *san.Place
	failure  *san.Place
	dirty    *san.Place
	stage    *san.Place   // staged policy only
	retry    *san.Place   // abort-retry policy only
	retired  []*san.Place // per-node policy: indexed by uidx

	ctnN []*san.Place // per upgraded node (by uidx): new-replica contamination
	ctnO []*san.Place // per upgraded node (by uidx): old-replica contamination
	ctn  []*san.Place // per node (by idx): plain contamination; nil for upgraded
}

// buildGd generates the scenario's guarded-operation dependability model
// (the paper's Figure 6 generalised to N nodes and the guard policies),
// returning the generated place handles as well. The detected and failure
// places carry the paper's semantics, so the Table 1 reward structures
// apply unchanged.
func buildGd(sc *Scenario) (*RMGd, *gdModel, error) {
	nodes, err := sc.index()
	if err != nil {
		return nil, nil, err
	}
	rs := sc.RecoverySuccess
	if rs == 0 {
		rs = 1
	}
	if !(rs > 0 && rs <= 1) {
		return nil, nil, fmt.Errorf("mdcd: RecoverySuccess = %g out of (0,1]", rs)
	}
	if sc.Retries < 0 {
		return nil, nil, scenarioErr("retries = %d is negative", sc.Retries)
	}
	g := &gdModel{sc: sc, nodes: nodes, rs: rs}
	m := san.NewModel("Gd:" + sc.Name)
	g.detected = m.AddPlace(plDetected, 0)
	g.failure = m.AddPlace(plFailure, 0)
	g.dirty = m.AddPlace(plDirty, 0)
	var upgraded []node
	for _, n := range nodes {
		if n.Upgraded {
			upgraded = append(upgraded, n)
		}
	}
	g.retired = make([]*san.Place, len(upgraded))
	switch sc.policy() {
	case PolicyPerNode:
		for _, u := range upgraded {
			g.retired[u.uidx] = m.AddPlace(u.Name+".retired", 0)
		}
	case PolicyStaged:
		g.stage = m.AddPlace(plStage, 0)
	case PolicyAbortRetry:
		g.retry = m.AddPlace(plRetry, sc.Retries)
	}
	g.ctnN = make([]*san.Place, len(upgraded))
	g.ctnO = make([]*san.Place, len(upgraded))
	g.ctn = make([]*san.Place, len(nodes))
	for _, n := range nodes {
		if n.Upgraded {
			g.ctnN[n.uidx] = m.AddPlace(n.Name+".ctnN", 0)
			g.ctnO[n.uidx] = m.AddPlace(n.Name+".ctnO", 0)
		} else {
			g.ctn[n.idx] = m.AddPlace(n.Name+".ctn", 0)
		}
	}

	// Activities in Figure 6's order — every node's fault manifestations,
	// then the in-service senders, then the proven replicas, which send
	// only after recovery. Exploration follows activity order, so on the
	// paper scenario the states come out numbered as in the paper's RMGd.
	for _, n := range nodes {
		g.addFaults(m, n)
	}
	for _, n := range nodes {
		if n.Upgraded {
			g.addNewSender(m, n)
		} else {
			g.addPlainSender(m, n)
		}
	}
	for _, u := range upgraded {
		g.addOldSender(m, u)
	}

	sp, err := statespace.Generate(m, statespace.Options{MaxStates: sc.MaxStates})
	if err != nil {
		return nil, nil, fmt.Errorf("mdcd: generating Gd space: %w", err)
	}
	r := &RMGd{Space: sp, DirtyBit: g.dirty, Detected: g.detected, Failure: g.failure}
	r.buildRateVectors()
	return r, g, nil
}

// --- mode predicates (policy-dependent) --------------------------------

func (g *gdModel) alive(mk san.Marking) bool { return mk.Get(g.failure) == 0 }

// newInService reports whether u's upgraded replica is running.
func (g *gdModel) newInService(u node, mk san.Marking) bool {
	switch g.sc.policy() {
	case PolicyPerNode:
		return mk.Get(g.retired[u.uidx]) == 0
	case PolicyStaged:
		return mk.Get(g.detected) == 0 && u.uidx <= mk.Get(g.stage)
	default: // global, abort-retry
		return mk.Get(g.detected) == 0
	}
}

// newGuarded reports whether u's upgraded replica is under guard (its
// external messages acceptance-tested). Under the staged policy a
// committed upgrade is in service but trusted.
func (g *gdModel) newGuarded(u node, mk san.Marking) bool {
	if g.sc.policy() == PolicyStaged {
		return mk.Get(g.detected) == 0 && u.uidx == mk.Get(g.stage)
	}
	return g.newInService(u, mk)
}

// oldActive reports whether u's proven replica is actively sending
// messages (rather than shadowing).
func (g *gdModel) oldActive(u node, mk san.Marking) bool {
	switch g.sc.policy() {
	case PolicyPerNode:
		return mk.Get(g.retired[u.uidx]) == 1
	case PolicyStaged:
		return mk.Get(g.detected) == 1 || u.uidx > mk.Get(g.stage)
	default:
		return mk.Get(g.detected) == 1
	}
}

// plainGuarded reports whether plain nodes' potentially-contaminated
// external messages are acceptance-tested.
func (g *gdModel) plainGuarded(mk san.Marking) bool {
	if mk.Get(g.detected) != 0 {
		return false
	}
	if g.sc.policy() == PolicyStaged {
		return mk.Get(g.stage) < len(g.ctnN)
	}
	return true
}

// --- recovery and failure actions --------------------------------------

// rollback restores every node to a consistent clean state: the MDCD
// rollback/roll-forward machinery discards message-borne contamination
// along with the confidence view. Message-borne contamination always
// travels together with the dirty-bit view on the dominant paths, so
// rollback to the checkpoints taken before those receipts discards it;
// the paper makes the same approximation explicitly (§4.1): dormant
// error conditions surviving recovery are negligible, so the recovered
// configuration restarts clean, and fresh MuOld faults in the remainder
// of [0, φ] are what drive post-recovery failures.
func (g *gdModel) rollback(mk san.Marking) {
	for _, pl := range g.ctnN {
		mk.Set(pl, 0)
	}
	for _, pl := range g.ctnO {
		mk.Set(pl, 0)
	}
	for _, pl := range g.ctn {
		if pl != nil {
			mk.Set(pl, 0)
		}
	}
	mk.Set(g.dirty, 0)
}

// retireAll ends the G-OP mode outright. The stage counter is reset so
// post-detection states collapse regardless of how far the rollout got.
func (g *gdModel) retireAll(mk san.Marking) {
	mk.Set(g.detected, 1)
	for _, pl := range g.retired {
		if pl != nil {
			mk.Set(pl, 1)
		}
	}
	if g.stage != nil {
		mk.Set(g.stage, 0)
	}
	g.rollback(mk)
}

// recoverSuspect handles a detection attributed to upgraded node u (its
// own erroneous external message was caught by the AT).
func (g *gdModel) recoverSuspect(u node, mk san.Marking) {
	switch g.sc.policy() {
	case PolicyPerNode:
		mk.Set(g.retired[u.uidx], 1)
		g.rollback(mk)
		for _, pl := range g.retired {
			if mk.Get(pl) == 0 {
				return // suspects remain: G-OP continues for them
			}
		}
		mk.Set(g.detected, 1)
	case PolicyAbortRetry:
		if r := mk.Get(g.retry); r > 0 {
			mk.Set(g.retry, r-1)
			g.rollback(mk) // abort the bad state, retry the upgrade
			return
		}
		g.retireAll(mk)
	default: // global, staged (a detection aborts the whole rollout)
		g.retireAll(mk)
	}
}

// recoverDirty handles a detection attributed to the confidence chain (a
// contaminated plain node's external message was caught): the erroneous
// state cannot be localised to one suspect.
func (g *gdModel) recoverDirty(mk san.Marking) {
	switch g.sc.policy() {
	case PolicyAbortRetry:
		if r := mk.Get(g.retry); r > 0 {
			mk.Set(g.retry, r-1)
			g.rollback(mk)
			return
		}
		g.retireAll(mk)
	default:
		g.retireAll(mk)
	}
}

// fail enters the absorbing failure state, zeroing the bookkeeping places
// so failure states collapse to (at most) one per detected value.
func (g *gdModel) fail(mk san.Marking) {
	mk.Set(g.failure, 1)
	g.rollback(mk)
	for _, pl := range g.retired {
		if pl != nil {
			mk.Set(pl, 0)
		}
	}
	if g.stage != nil {
		mk.Set(g.stage, 0)
	}
	if g.retry != nil {
		mk.Set(g.retry, 0)
	}
}

// contaminate spreads sender-borne contamination to recipient r: a plain
// node's single state, or an upgraded node's shadow plus — while it is in
// service — its new replica.
func (g *gdModel) contaminate(r node, mk san.Marking) {
	if !r.Upgraded {
		mk.Set(g.ctn[r.idx], 1)
		return
	}
	mk.Set(g.ctnO[r.uidx], 1)
	if g.newInService(r, mk) {
		mk.Set(g.ctnN[r.uidx], 1)
	}
}

// peers returns every node other than n, the recipients of its internal
// messages (uniform routing, probability (1-pext)/(N-1) each).
func (g *gdModel) peers(n node) []node {
	out := make([]node, 0, len(g.nodes)-1)
	for _, o := range g.nodes {
		if o.idx != n.idx {
			out = append(out, o)
		}
	}
	return out
}

// --- node activities ----------------------------------------------------

// addFaults wires node n's fault-manifestation activities: an upgraded
// node's new replica (while in service) and proven replica (throughout
// [0, φ]), or a plain node's single version.
func (g *gdModel) addFaults(m *san.Model, n node) {
	prefix := n.Name + "."
	if !n.Upgraded {
		ctn := g.ctn[n.idx]
		fm := m.AddTimedActivity(prefix+"fm", san.ConstRate(n.MuOld)).
			AddInputGate("enabled", func(mk san.Marking) bool {
				return g.alive(mk) && mk.Get(ctn) == 0
			}, nil)
		fm.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(ctn, 1) })
		return
	}
	u := n
	ctnN, ctnO := g.ctnN[u.uidx], g.ctnO[u.uidx]

	// New-replica (upgraded software) faults manifest while in service.
	fmN := m.AddTimedActivity(prefix+"fmN", san.ConstRate(u.MuNew)).
		AddInputGate("enabled", func(mk san.Marking) bool {
			return g.alive(mk) && g.newInService(u, mk) && mk.Get(ctnN) == 0
		}, nil)
	fmN.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(ctnN, 1) })

	// Old-replica faults manifest throughout [0, φ] (shadow or active).
	fmO := m.AddTimedActivity(prefix+"fmO", san.ConstRate(u.MuOld)).
		AddInputGate("enabled", func(mk san.Marking) bool {
			return g.alive(mk) && mk.Get(ctnO) == 0
		}, nil)
	fmO.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(ctnO, 1) })
}

// addNewSender wires upgraded node u's new-replica message sending:
// guarded while under AT, trusted once committed by the staged policy.
func (g *gdModel) addNewSender(m *san.Model, u node) {
	prefix := u.Name + "."
	ctnN := g.ctnN[u.uidx]
	cov := g.sc.Coverage
	staged := g.sc.policy() == PolicyStaged

	// New-replica message sending. While guarded, every external message
	// undergoes AT (the node is always considered potentially
	// contaminated); a committed upgrade (staged policy) sends unchecked.
	msgN := m.AddTimedActivity(prefix+"msgN", san.ConstRate(u.Lambda)).
		AddInputGate("inService", func(mk san.Marking) bool {
			return g.alive(mk) && g.newInService(u, mk)
		}, nil)
	msgN.AddCase(func(mk san.Marking) float64 { // erroneous external, detected
		if mk.Get(ctnN) == 1 && g.newGuarded(u, mk) {
			return u.PExt * cov * g.rs
		}
		return 0
	}).AddOutputFunc(func(mk san.Marking) { g.recoverSuspect(u, mk) })
	msgN.AddCase(func(mk san.Marking) float64 { // erroneous external, escaped or unrecovered
		if mk.Get(ctnN) != 1 {
			return 0
		}
		if g.newGuarded(u, mk) {
			return u.PExt * (1 - cov*g.rs)
		}
		return u.PExt // trusted: no AT between the error and the consumer
	}).AddOutputFunc(g.fail)
	msgN.AddCase(func(mk san.Marking) float64 { // clean external
		if mk.Get(ctnN) == 0 {
			return u.PExt
		}
		return 0
	}).AddOutputFunc(func(mk san.Marking) {
		if !g.newGuarded(u, mk) {
			return
		}
		// Passing the AT validates the confidence chain downstream.
		mk.Set(g.dirty, 0)
		if staged {
			// The committed suspect is trusted from here on; the next
			// pending upgrade (if any) comes under guard.
			mk.Set(g.stage, mk.Get(g.stage)+1)
		}
	})
	for _, r := range g.peers(u) {
		r := r
		msgN.AddCase(func(mk san.Marking) float64 { // internal message to r
			return (1 - u.PExt) / float64(len(g.nodes)-1)
		}).AddOutputFunc(func(mk san.Marking) {
			if g.newGuarded(u, mk) {
				// A suspect's internal message marks its recipients
				// potentially contaminated.
				mk.Set(g.dirty, 1)
			}
			if mk.Get(ctnN) == 1 {
				g.contaminate(r, mk)
			}
		})
	}
}

// addOldSender wires upgraded node u's proven-replica message sending:
// shadow while the new replica serves, active afterwards.
func (g *gdModel) addOldSender(m *san.Model, u node) {
	prefix := u.Name + "."
	ctnO := g.ctnO[u.uidx]

	// Old-replica message sending: suppressed while shadowing, active in
	// the recovered (or not-yet-upgraded, staged policy) configuration.
	// No safeguards apply to it.
	msgO := m.AddTimedActivity(prefix+"msgO", san.ConstRate(u.Lambda)).
		AddInputGate("active", func(mk san.Marking) bool {
			return g.alive(mk) && g.oldActive(u, mk)
		}, nil)
	msgO.AddCase(func(mk san.Marking) float64 { // erroneous external
		if mk.Get(ctnO) == 1 {
			return u.PExt
		}
		return 0
	}).AddOutputFunc(g.fail)
	msgO.AddCase(func(mk san.Marking) float64 { // clean external
		if mk.Get(ctnO) == 0 {
			return u.PExt
		}
		return 0
	})
	for _, r := range g.peers(u) {
		r := r
		msgO.AddCase(func(mk san.Marking) float64 {
			return (1 - u.PExt) / float64(len(g.nodes)-1)
		}).AddOutputFunc(func(mk san.Marking) {
			if mk.Get(ctnO) == 1 {
				g.contaminate(r, mk)
			}
		})
	}
}

// addPlainSender wires plain node n's message sending: its external
// messages are acceptance-tested only while the confidence view (the
// shared dirty bit) marks it potentially contaminated and the G-OP mode
// is still guarding.
func (g *gdModel) addPlainSender(m *san.Model, n node) {
	prefix := n.Name + "."
	ctn := g.ctn[n.idx]
	cov := g.sc.Coverage

	msg := m.AddTimedActivity(prefix+"msg", san.ConstRate(n.Lambda)).
		AddInputGate("alive", g.alive, nil)
	msg.AddCase(func(mk san.Marking) float64 { // erroneous external, detected
		if g.plainGuarded(mk) && mk.Get(ctn) == 1 && mk.Get(g.dirty) == 1 {
			return n.PExt * cov * g.rs
		}
		return 0
	}).AddOutputFunc(g.recoverDirty)
	msg.AddCase(func(mk san.Marking) float64 { // erroneous external, failure
		if mk.Get(ctn) != 1 {
			return 0
		}
		if g.plainGuarded(mk) && mk.Get(g.dirty) == 1 {
			return n.PExt * (1 - cov*g.rs) // AT miss or failed recovery
		}
		return n.PExt // considered clean, or no AT outside the guard
	}).AddOutputFunc(g.fail)
	msg.AddCase(func(mk san.Marking) float64 { // clean external
		if mk.Get(ctn) == 0 {
			return n.PExt
		}
		return 0
	}).AddOutputFunc(func(mk san.Marking) {
		// A clean external message passes whatever AT was required and
		// resets the confidence view (gate P2ok_ext of Figure 6).
		if g.plainGuarded(mk) {
			mk.Set(g.dirty, 0)
		}
	})
	for _, r := range g.peers(n) {
		r := r
		msg.AddCase(func(mk san.Marking) float64 {
			return (1 - n.PExt) / float64(len(g.nodes)-1)
		}).AddOutputFunc(func(mk san.Marking) {
			if mk.Get(ctn) == 1 {
				g.contaminate(r, mk)
			}
		})
	}
}
