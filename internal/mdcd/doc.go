// Package mdcd builds the three SAN reward models of the guarded software
// upgrading (GSU) study — the message-driven confidence-driven (MDCD)
// protocol models of the paper's Figures 6–8:
//
//   - RMGd (Figure 6): dependability behaviour of the system during the
//     guarded-operation interval [0, φ], including error detection by
//     acceptance test (AT), undetected-error failures, recovery into the
//     normal mode, and post-recovery failures. AT is modelled as
//     instantaneous (its latency is negligible against fault inter-arrival
//     times), realised here by resolving the detect/miss alternative as
//     probabilistic cases of the message-sending activities.
//   - RMGp (Figure 7): performance-overhead behaviour under the G-OP mode
//     in an ideal (fault-free) environment: message passing, AT executions
//     at rate α, checkpoint establishments at rate β, and the
//     confidence-driven dirty-bit dynamics that decide when an AT or a
//     checkpoint is required. Its steady state yields the forward-progress
//     fractions ρ₁ (process P1new) and ρ₂ (process P2).
//   - RMNd (Figure 8): dependability behaviour of a two-process system in
//     the normal mode (no safeguards): fault manifestation, contamination
//     propagation through internal messages, and failure on the first
//     erroneous external message.
//
// The protocol semantics encoded here follow Section 2 and Section 5.1 of
// the paper:
//
//   - A process state is (actually) contaminated after its own fault
//     manifests or after it receives an internal message sent by a
//     contaminated process. An erroneous process state makes the process's
//     outgoing messages erroneous (the paper's key assumption).
//   - P1new is always *considered* potentially contaminated during G-OP, so
//     every external message of P1new undergoes AT. P2 (and P1old) share a
//     confidence view — the dirty bit: it is set when P2 receives an
//     unvalidated message from P1new and reset when an external message of
//     a clean sender passes AT.
//   - An erroneous external message is detected by AT with probability c
//     (coverage); an undetected erroneous external message is an immediate
//     system failure. Detection triggers recovery: P1old takes over, the
//     system enters the normal mode, and rollback restarts the recovered
//     pair {P1old, P2} clean (the paper's §4.1 approximation).
//   - In the normal mode no AT or checkpointing is performed, so the first
//     erroneous external message causes failure.
//
// One generator builds every model of the family. Generate takes a
// resolved Scenario — N nodes, the coverage c, the safeguard rates α and
// β, the guard policy, its retry budget and a state limit — after
// Montecchi et al.'s SAN Templates, generates Gd, the joint Gp and both
// Nd, model-checks each generated space once, and solves the per-node ρ;
// internal/template resolves JSON scenario specs into a Scenario, and
// every analyzer in internal/core is built from Generate's output.
// BuildRMGd, BuildRMGp and BuildRMNd are thin wrappers: they run the
// generators on the paper's two-process scenario (PaperScenario: P1
// upgraded, P2 plain, global policy) and bind the place and activity
// handles the simulator and the cost accounting read. Generated place names are scoped by node, so the paper's P1Nctn
// is P1.ctnN and P1nExt is P1.sext; docs/MODELS.md maps them all.
//
// The constituent-measure reward structures of the paper's Tables 1 and 2
// are provided by the Measures type.
package mdcd
