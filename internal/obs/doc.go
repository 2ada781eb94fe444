// Package obs is the observability subsystem of the solve stack: a
// lightweight hierarchical span tracer with typed counters and duration
// histograms, threaded through the solver layers (ctmc → mdcd → core →
// robust) via the context, plus the sinks that make a run inspectable —
// the run's metrics (counters and per-stage span aggregates) in each
// -metrics format, with one writer per format (Tracer.WriteText,
// WriteJSON, WriteProm; the gsuserve /metrics endpoint uses WriteProm),
// a JSON trace/manifest document (gsueval -trace), and pprof profiling
// hooks for the binaries. The Tracer is the run's only aggregate: the
// batch runner, the model checker and the serving layer all count into
// it.
//
// # Cost model
//
// The package is built so an untraced run pays nothing measurable: every
// entry point is nil-safe, and when no Tracer is installed in the context,
// StartSpan returns the context unchanged with a nil *Span and Count is a
// single context lookup — zero allocations on both paths (asserted by
// TestNoopZeroAlloc). Instrumentation therefore sits directly on the
// solver hot paths, where one span brackets one solver pass (milliseconds
// of matrix work), never inner loops.
//
// # Attribution
//
// Counters are scoped, not global: Count feeds the Tracer installed by
// WithTracer and the Scope installed by WithScope (scopes nest — a count
// reaches every enclosing scope). A layer that needs an exact per-run
// total — core's curve engine accounting its solver-pass budget — opens a
// Scope around the region of interest and reads the total from it, so
// concurrent analyzers never pollute each other's counts. There is no
// process-global counter to fall back on. See docs/OBSERVABILITY.md.
package obs
