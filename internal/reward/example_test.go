package reward_test

import (
	"fmt"
	"log"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
)

// Example builds a one-component repairable system and evaluates the three
// reward variables of the package.
func Example() {
	m := san.NewModel("one-component")
	up := m.AddPlace("up", 1)
	down := m.AddPlace("down", 0)
	fail := m.AddTimedActivity("fail", san.ConstRate(0.1)).AddInputArc(up, 1)
	fail.AddCase(san.ConstProb(1)).AddOutputArc(down, 1)
	repair := m.AddTimedActivity("repair", san.ConstRate(0.9)).AddInputArc(down, 1)
	repair.AddCase(san.ConstProb(1)).AddOutputArc(up, 1)

	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	avail := reward.NewStructure().Add("up",
		func(mk san.Marking) bool { return mk.Get(up) == 1 }, 1)

	longRun, err := reward.SteadyState(sp, avail)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("long-run availability: %.2f\n", longRun[0])

	repairs := reward.NewImpulseStructure().Add("repair", 1)
	perHour, err := reward.SteadyStateImpulseRate(sp, repairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repairs per hour: %.3f\n", perHour[0])

	// Output:
	// long-run availability: 0.90
	// repairs per hour: 0.090
}
