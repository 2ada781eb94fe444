// Quickstart: build a small stochastic activity network, generate its
// CTMC, and solve transient, accumulated and steady-state reward variables.
//
// The model is a two-component repairable system with a shared repair
// facility: each component fails at rate lambda and is repaired at rate mu,
// but only one repair can be in progress at a time. We ask three classic
// questions:
//
//  1. availability at time t         (instant-of-time reward)
//  2. expected downtime over [0, t]  (accumulated reward)
//  3. long-run availability          (steady-state reward)
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

func main() {
	const (
		lambda = 0.01 // failures per hour per component
		mu     = 0.5  // repairs per hour
	)

	// --- model construction ---------------------------------------------
	m := san.NewModel("two-component-repair")
	up := m.AddPlace("up", 2)     // working components
	down := m.AddPlace("down", 0) // failed components

	fail := m.AddTimedActivity("fail",
		func(mk san.Marking) float64 { return lambda * float64(mk.Get(up)) }).
		AddInputArc(up, 1)
	fail.AddCase(san.ConstProb(1)).AddOutputArc(down, 1)

	// One shared repair facility: the rate does not scale with the queue.
	repair := m.AddTimedActivity("repair", san.ConstRate(mu)).
		AddInputArc(down, 1)
	repair.AddCase(san.ConstProb(1)).AddOutputArc(up, 1)

	// --- state-space generation -----------------------------------------
	space, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("state space: %d tangible states\n", space.NumStates())
	for i, mk := range space.States {
		fmt.Printf("  state %d: %s\n", i, mk.Format(m))
	}

	// --- reward variables -------------------------------------------------
	// The system is "available" while at least one component is up.
	available := reward.NewStructure().Add("available",
		func(mk san.Marking) bool { return mk.Get(up) >= 1 }, 1)
	downtime := reward.NewStructure().Add("all down",
		func(mk san.Marking) bool { return mk.Get(up) == 0 }, 1)

	const t = 100.0
	avail, err := reward.InstantOfTime(space, available, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\navailability at t=%.0f h:        %.8f\n", t, avail)

	expDown, err := reward.Accumulated(space, downtime, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected downtime over [0,%.0f]: %.6f h\n", t, expDown)

	longRun, err := reward.SteadyState(space, available)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("long-run availability:          %.8f\n", longRun[0])
}
