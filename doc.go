// Package guardedop is a stochastic activity network (SAN) / Markov reward
// modelling toolkit built to reproduce, end to end, the DSN 2002 paper
// "Performability Analysis of Guarded-Operation Duration: A Translation
// Approach for Reward Model Solutions" (Tai, Sanders, Alkalai, Chau, Tso).
//
// The library lives under internal/ (this module is a self-contained
// reproduction artefact, not an importable dependency):
//
//   - internal/sparse, internal/ctmc: the numerical substrate — sparse
//     linear algebra, uniformization, matrix exponentials and steady-state
//     analysis.
//   - internal/san, internal/statespace, internal/reward: the modelling
//     substrate — SAN construction with timed activities, reachability
//     generation, and predicate-rate reward structures.
//   - internal/mdcd: the paper's three SAN reward models (RMGd, RMGp,
//     RMNd) of the message-driven confidence-driven protocol.
//   - internal/core: the paper's contribution — the successive model
//     translation that evaluates the performability index Y(φ).
//   - internal/sim: Monte-Carlo simulation of the monolithic process,
//     validating the translation.
//   - internal/experiments: one runnable reproduction per table and
//     figure of the paper's evaluation.
//
// The benchmark suite in bench_test.go regenerates every table and figure;
// cmd/gsueval, cmd/sandump and cmd/gsusim expose the same experiments on
// the command line. See README.md, DESIGN.md and EXPERIMENTS.md.
package guardedop
