package mdcd

import (
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// Frozen fixtures: the paper's three SAN reward models encoded by hand,
// place by place and activity by activity, straight from Figures 6–8.
// They are kept only as the reference the isomorphism suite checks the
// scenario generators against; nothing outside the tests builds them.

// fixtureRMGd is the hand-encoded RMGd (Figure 6) with recovery success
// probability rs in (0, 1].
func fixtureRMGd(p Params, rs float64) (*statespace.Space, error) {
	m := san.NewModel("RMGd")
	p1n := m.AddPlace("P1Nctn", 0)
	p1o := m.AddPlace("P1Octn", 0)
	p2 := m.AddPlace("P2ctn", 0)
	dirty := m.AddPlace("dirty_bit", 0)
	detected := m.AddPlace("detected", 0)
	failure := m.AddPlace("failure", 0)

	alive := func(mk san.Marking) bool { return mk.Get(failure) == 0 }
	gop := func(mk san.Marking) bool { return alive(mk) && mk.Get(detected) == 0 }
	normal := func(mk san.Marking) bool { return alive(mk) && mk.Get(detected) == 1 }
	recover := func(mk san.Marking) {
		mk.Set(detected, 1)
		mk.Set(p1n, 0)
		mk.Set(p1o, 0)
		mk.Set(p2, 0)
		mk.Set(dirty, 0)
	}
	fail := func(mk san.Marking) {
		mk.Set(failure, 1)
		mk.Set(p1n, 0)
		mk.Set(p1o, 0)
		mk.Set(p2, 0)
		mk.Set(dirty, 0)
	}

	m.AddTimedActivity("P1Nfm", san.ConstRate(p.MuNew)).
		AddInputGate("enabled", func(mk san.Marking) bool { return gop(mk) && mk.Get(p1n) == 0 }, nil).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(p1n, 1) })
	m.AddTimedActivity("P1Ofm", san.ConstRate(p.MuOld)).
		AddInputGate("enabled", func(mk san.Marking) bool { return alive(mk) && mk.Get(p1o) == 0 }, nil).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(p1o, 1) })
	m.AddTimedActivity("P2fm", san.ConstRate(p.MuOld)).
		AddInputGate("enabled", func(mk san.Marking) bool { return alive(mk) && mk.Get(p2) == 0 }, nil).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(p2, 1) })

	// P1new sends only in G-OP; all its externals undergo AT.
	p1nmsg := m.AddTimedActivity("P1Nmsg", san.ConstRate(p.Lambda)).AddInputGate("gop", gop, nil)
	p1nmsg.AddCase(func(mk san.Marking) float64 { // P1Nerr_ext, detected & recovered
		if mk.Get(p1n) == 1 {
			return p.PExt * p.Coverage * rs
		}
		return 0
	}).AddOutputFunc(recover)
	p1nmsg.AddCase(func(mk san.Marking) float64 { // P1Nerr_ext, undetected or recovery failed
		if mk.Get(p1n) == 1 {
			return p.PExt * (1 - p.Coverage*rs)
		}
		return 0
	}).AddOutputFunc(fail)
	p1nmsg.AddCase(func(mk san.Marking) float64 { // P1Nok_ext
		if mk.Get(p1n) == 0 {
			return p.PExt
		}
		return 0
	}).AddOutputFunc(func(mk san.Marking) { mk.Set(dirty, 0) })
	p1nmsg.AddCase(san.ConstProb(1 - p.PExt)).AddOutputFunc(func(mk san.Marking) { // internal to P2
		mk.Set(dirty, 1)
		if mk.Get(p1n) == 1 {
			mk.Set(p2, 1)
		}
	})

	// P2 sends in both modes; its externals are AT'd only while dirty in G-OP.
	p2msg := m.AddTimedActivity("P2msg", san.ConstRate(p.Lambda)).AddInputGate("alive", alive, nil)
	p2msg.AddCase(func(mk san.Marking) float64 { // P2err_ext, detected & recovered
		if gop(mk) && mk.Get(p2) == 1 && mk.Get(dirty) == 1 {
			return p.PExt * p.Coverage * rs
		}
		return 0
	}).AddOutputFunc(recover)
	p2msg.AddCase(func(mk san.Marking) float64 { // P2err_ext, failure
		switch {
		case gop(mk) && mk.Get(p2) == 1 && mk.Get(dirty) == 1:
			return p.PExt * (1 - p.Coverage*rs)
		case gop(mk) && mk.Get(p2) == 1 && mk.Get(dirty) == 0:
			return p.PExt
		case normal(mk) && mk.Get(p2) == 1:
			return p.PExt
		default:
			return 0
		}
	}).AddOutputFunc(fail)
	p2msg.AddCase(func(mk san.Marking) float64 { // P2ok_ext
		if mk.Get(p2) == 0 {
			return p.PExt
		}
		return 0
	}).AddOutputFunc(func(mk san.Marking) {
		if mk.Get(detected) == 0 {
			mk.Set(dirty, 0)
		}
	})
	p2msg.AddCase(san.ConstProb(1 - p.PExt)).AddOutputFunc(func(mk san.Marking) { // internal
		if mk.Get(p2) != 1 {
			return
		}
		mk.Set(p1o, 1)
		if mk.Get(detected) == 0 {
			mk.Set(p1n, 1)
		}
	})

	// P1old sends only after recovery (shadow during G-OP).
	p1omsg := m.AddTimedActivity("P1Omsg", san.ConstRate(p.Lambda)).AddInputGate("normal", normal, nil)
	p1omsg.AddCase(func(mk san.Marking) float64 { // erroneous external
		if mk.Get(p1o) == 1 {
			return p.PExt
		}
		return 0
	}).AddOutputFunc(fail)
	p1omsg.AddCase(func(mk san.Marking) float64 { // clean external
		if mk.Get(p1o) == 0 {
			return p.PExt
		}
		return 0
	})
	p1omsg.AddCase(san.ConstProb(1 - p.PExt)).AddOutputFunc(func(mk san.Marking) { // internal to P2
		if mk.Get(p1o) == 1 {
			mk.Set(p2, 1)
		}
	})

	return statespace.Generate(m, statespace.Options{})
}

// fixtureRMGp is the hand-encoded RMGp (Figure 7) with Erlang-stages AT
// and checkpoint durations.
func fixtureRMGp(p Params, stages int) (*statespace.Space, error) {
	m := san.NewModel("RMGp")
	p1nReady := m.AddPlace("P1nReady", 1)
	p1nExt := m.AddPlace("P1nExt", 0)
	p1nInt := m.AddPlace("P1nInt", 0)
	p2Ready := m.AddPlace("P2Ready", 1)
	p2Ext := m.AddPlace("P2Ext", 0)
	p1oCheck := m.AddPlace("P1oCheck", 0)
	p1oDB := m.AddPlace("P1oDB", 0)
	p2DB := m.AddPlace("P2DB", 0)
	k := float64(stages)

	p1nMsg := m.AddTimedActivity("P1nMsg", san.ConstRate(p.Lambda)).AddInputArc(p1nReady, 1)
	p1nMsg.AddCase(san.ConstProb(p.PExt)).AddOutputArc(p1nExt, stages)
	p1nMsg.AddCase(func(mk san.Marking) float64 { // internal to a clean, idle P2: P2 checkpoints
		if mk.Get(p2DB) == 0 && mk.Get(p1nInt) == 0 {
			return 1 - p.PExt
		}
		return 0
	}).AddOutputArc(p1nReady, 1).AddOutputArc(p1nInt, stages)
	p1nMsg.AddCase(func(mk san.Marking) float64 { // internal, checkpoint skipped
		if mk.Get(p2DB) == 1 || mk.Get(p1nInt) > 0 {
			return 1 - p.PExt
		}
		return 0
	}).AddOutputArc(p1nReady, 1)

	m.AddTimedActivity("P1nAT", san.ConstRate(k*p.Alpha)).AddInputArc(p1nExt, 1).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		if mk.Get(p1nExt) > 0 {
			return
		}
		mk.Set(p1nReady, 1)
		mk.Set(p2DB, 0)
		mk.Set(p1oDB, 0)
	})
	m.AddTimedActivity("P2_CKPT", san.ConstRate(k*p.Beta)).AddInputArc(p1nInt, 1).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		if mk.Get(p1nInt) > 0 {
			return
		}
		mk.Set(p2DB, 1)
	})

	p2Msg := m.AddTimedActivity("P2Msg", san.ConstRate(p.Lambda)).
		AddInputArc(p2Ready, 1).
		AddInputGate("notCheckpointing", func(mk san.Marking) bool { return mk.Get(p1nInt) == 0 }, nil)
	p2Msg.AddCase(func(mk san.Marking) float64 { // external while dirty: AT
		if mk.Get(p2DB) == 1 {
			return p.PExt
		}
		return 0
	}).AddOutputArc(p2Ext, stages)
	p2Msg.AddCase(func(mk san.Marking) float64 { // external while clean: no AT
		if mk.Get(p2DB) == 0 {
			return p.PExt
		}
		return 0
	}).AddOutputArc(p2Ready, 1)
	p2Msg.AddCase(func(mk san.Marking) float64 { // dirty internal to a clean P1old: it checkpoints
		if mk.Get(p2DB) == 1 && mk.Get(p1oDB) == 0 && mk.Get(p1oCheck) == 0 {
			return 1 - p.PExt
		}
		return 0
	}).AddOutputArc(p2Ready, 1).AddOutputArc(p1oCheck, stages)
	p2Msg.AddCase(func(mk san.Marking) float64 { // internal otherwise
		if mk.Get(p2DB) == 0 || mk.Get(p1oDB) == 1 || mk.Get(p1oCheck) > 0 {
			return 1 - p.PExt
		}
		return 0
	}).AddOutputArc(p2Ready, 1)

	m.AddTimedActivity("P2AT", san.ConstRate(k*p.Alpha)).AddInputArc(p2Ext, 1).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		if mk.Get(p2Ext) > 0 {
			return
		}
		mk.Set(p2Ready, 1)
		mk.Set(p2DB, 0)
		mk.Set(p1oDB, 0)
	})
	m.AddTimedActivity("P1o_CKPT", san.ConstRate(k*p.Beta)).AddInputArc(p1oCheck, 1).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		if mk.Get(p1oCheck) > 0 {
			return
		}
		mk.Set(p1oDB, 1)
	})

	return statespace.Generate(m, statespace.Options{})
}

// fixtureRMNd is the hand-encoded RMNd (Figure 8) with fault rate mu1 for
// the first process.
func fixtureRMNd(p Params, mu1 float64) (*statespace.Space, error) {
	m := san.NewModel("RMNd")
	p1 := m.AddPlace("P1Nctn", 0)
	p2 := m.AddPlace("P2ctn", 0)
	failure := m.AddPlace("failure", 0)
	alive := func(mk san.Marking) bool { return mk.Get(failure) == 0 }
	fail := func(mk san.Marking) {
		mk.Set(failure, 1)
		mk.Set(p1, 0)
		mk.Set(p2, 0)
	}
	m.AddTimedActivity("P1Nfm", san.ConstRate(mu1)).
		AddInputGate("enabled", func(mk san.Marking) bool { return alive(mk) && mk.Get(p1) == 0 }, nil).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(p1, 1) })
	m.AddTimedActivity("P2fm", san.ConstRate(p.MuOld)).
		AddInputGate("enabled", func(mk san.Marking) bool { return alive(mk) && mk.Get(p2) == 0 }, nil).
		AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) { mk.Set(p2, 1) })
	addMsg := func(name string, own, peer *san.Place) {
		act := m.AddTimedActivity(name, san.ConstRate(p.Lambda)).AddInputGate("alive", alive, nil)
		act.AddCase(func(mk san.Marking) float64 { // erroneous external: failure
			if mk.Get(own) == 1 {
				return p.PExt
			}
			return 0
		}).AddOutputFunc(fail)
		act.AddCase(func(mk san.Marking) float64 { // clean external
			if mk.Get(own) == 0 {
				return p.PExt
			}
			return 0
		})
		act.AddCase(san.ConstProb(1 - p.PExt)).AddOutputFunc(func(mk san.Marking) { // internal
			if mk.Get(own) == 1 {
				mk.Set(peer, 1)
			}
		})
	}
	addMsg("P1Nmsg", p1, p2)
	addMsg("P2msg", p2, p1)
	return statespace.Generate(m, statespace.Options{})
}
