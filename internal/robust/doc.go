// Package robust is the fault-tolerance layer of the toolkit: a typed
// error taxonomy shared by the numeric packages, finite-value and
// probability guards, and a context-aware batch runner that turns "one
// bad sample kills the sweep" into "skip, record, and keep going".
//
// The package applies the paper's own philosophy — graceful degradation
// under faults — to the evaluation machinery itself. A design-space
// exploration sweeps thousands of parameter sets; some of them are
// degenerate (singular transient blocks, probabilities driven to the
// boundary, overflowing horizons) and the tooling has to survive those
// regions to be usable.
//
// Layering: robust depends on the standard library and on internal/obs
// (RunBatch reports its attempt, panic and error-class counters there),
// and on nothing else in the module, so every other package (sparse,
// ctmc, core, uncertainty, experiments, the commands) can import it
// without cycles.
package robust
