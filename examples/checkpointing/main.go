// checkpointing: a second case study showing the toolkit beyond the GSU
// models — the classic optimal-checkpoint-interval problem of the
// checkpointing literature the paper positions itself against (its
// references [18-20]).
//
// A long-running computation saves a checkpoint (mean duration C) after
// every completed work segment of mean length T. Failures strike at rate
// lambda; recovery takes mean R and rolls back to the last checkpoint,
// losing the work done since. How long should a segment be?
//
// Work segments are modelled as Erlang-k stages so that a failure really
// does lose partial work (with exponential segments the memoryless
// property would hide the loss). The efficiency — useful committed work
// per unit time — is a steady-state impulse reward: each completed
// checkpoint commits T units of work. The numerical optimum is compared
// against Young's classical approximation T* ≈ sqrt(2·C/lambda).
//
// Run with: go run ./examples/checkpointing
package main

import (
	"fmt"
	"log"
	"math"

	"guardedop/internal/reward"
	"guardedop/internal/san"
	"guardedop/internal/statespace"
	"guardedop/internal/textplot"
)

const (
	lambda    = 0.02 // failures per hour
	ckptCost  = 0.1  // mean checkpoint duration C (hours)
	recovery  = 0.5  // mean recovery duration R (hours)
	workUnits = 8    // Erlang stages per work segment
)

// efficiency returns the long-run committed-work fraction for segment
// length T.
func efficiency(T float64) (float64, error) {
	m := san.NewModel("checkpointing")
	working := m.AddPlace("working", 1)
	ckpt := m.AddPlace("checkpointing", 0)
	recov := m.AddPlace("recovering", 0)
	done := m.AddPlace("stagesDone", 0)

	// Work stages complete at rate k/T while working.
	stage := m.AddTimedActivity("stage", san.ConstRate(workUnits/T)).
		AddInputGate("working", func(mk san.Marking) bool { return mk.Get(working) == 1 }, nil)
	stage.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		d := mk.Get(done) + 1
		if d == workUnits {
			mk.Set(working, 0)
			mk.Set(ckpt, 1)
		}
		mk.Set(done, d)
	})

	// A completed checkpoint commits the segment.
	commit := m.AddTimedActivity("commit", san.ConstRate(1/ckptCost)).
		AddInputArc(ckpt, 1)
	commit.AddCase(san.ConstProb(1)).AddOutputArc(working, 1).
		AddOutputFunc(func(mk san.Marking) { mk.Set(done, 0) })

	// Failures strike during work and during checkpointing; uncommitted
	// stages are lost.
	fail := m.AddTimedActivity("fail", san.ConstRate(lambda)).
		AddInputGate("active", func(mk san.Marking) bool { return mk.Get(recov) == 0 }, nil)
	fail.AddCase(san.ConstProb(1)).AddOutputFunc(func(mk san.Marking) {
		mk.Set(working, 0)
		mk.Set(ckpt, 0)
		mk.Set(recov, 1)
		mk.Set(done, 0)
	})

	rec := m.AddTimedActivity("recover", san.ConstRate(1/recovery)).
		AddInputArc(recov, 1)
	rec.AddCase(san.ConstProb(1)).AddOutputArc(working, 1)

	sp, err := statespace.Generate(m, statespace.Options{})
	if err != nil {
		return 0, err
	}
	// Each commit is worth T hours of work: efficiency = T x commit rate.
	commits := reward.NewImpulseStructure().Add("commit", 1)
	rate, err := reward.SteadyStateImpulseRate(sp, commits)
	if err != nil {
		return 0, err
	}
	return T * rate[0], nil
}

func main() {
	var ts, effs []float64
	bestT, bestEff := 0.0, 0.0
	for T := 0.2; T <= 8.0001; T += 0.2 {
		eff, err := efficiency(T)
		if err != nil {
			log.Fatal(err)
		}
		ts = append(ts, T)
		effs = append(effs, eff)
		if eff > bestEff {
			bestT, bestEff = T, eff
		}
	}

	fmt.Printf("failure rate %.3g /h, checkpoint cost %.2g h, recovery %.2g h, Erlang-%d segments\n\n",
		lambda, ckptCost, recovery, workUnits)
	fmt.Print(textplot.Chart("committed-work efficiency vs segment length T (hours)",
		ts, []textplot.Series{{Name: "efficiency", Y: effs}}, 66, 12))

	young := math.Sqrt(2 * ckptCost / lambda)
	fmt.Printf("\nnumerical optimum: T = %.1f h (efficiency %.4f)\n", bestT, bestEff)
	fmt.Printf("Young's approximation: T* = sqrt(2C/lambda) = %.1f h\n", young)
	fmt.Println("\nthe same SAN -> state space -> reward pipeline that evaluates the")
	fmt.Println("guarded-operation index answers the checkpoint-frequency question the")
	fmt.Println("classical literature (the paper's refs [18-20]) studies analytically.")
}
