// Package ctmc implements the continuous-time Markov chain analyses the
// guarded-operation reward models need: transient state probabilities,
// accumulated (time-integrated) state probabilities and the steady-state
// distribution, plus first-passage analysis as a test oracle.
//
// A chain is described by its infinitesimal generator Q (off-diagonal entries
// are transition rates, diagonal entries make rows sum to zero) and an
// initial probability distribution.
//
// # Transient solution
//
// Transient (π(t)) and TransientAccumulated (π(t) together with
// ∫₀ᵗ π(u)du) are the only automatic entry points. Both take a series of
// time points and propagate incrementally between them; a point solve is
// a series of one. Each gap runs on one of two engines, selected in one
// place from the stiffness q·t and the chain size; neither has tunable
// settings (TransientUniformization, AccumulatedUniformization,
// TransientExpm and AccumulatedExpm force one engine, as references for
// tests):
//
//   - Uniformization (Jensen's method) with Fox–Glynn-style Poisson weight
//     computation and steady-state detection. This is exact up to
//     truncation error and cheap when q·t is moderate, where q is the
//     uniformization rate (max |Q_ii| padding) and t the horizon.
//   - Dense matrix exponential via Padé(13) approximation with scaling and
//     squaring (Higham 2005). Cost is O(log2(‖Q‖t)·n³), independent of
//     stiffness, which makes it the right tool for the stiff horizons that
//     arise in the guarded-operation study (message rates of 1200/h against
//     fault rates of 1e-8/h over 10⁴ h, i.e. q·t ≈ 7·10⁷).
//
// Accumulated probabilities ∫₀ᵗ π(u) du — the kernel of expected
// interval-of-time reward variables — are computed either by the
// uniformization complementary-CDF formula or by exponentiating the
// augmented generator [[Q, I], [0, 0]], whose top-right block is the
// integral (Van Loan 1978).
//
// # Steady state
//
// SteadyState solves πQ = 0, Σπ = 1 by dense LU for small chains and by
// Gauss-Seidel sweeps for larger ones. Chains with absorbing states have
// no absorbing-chain analysis here; their transient and accumulated
// measures go through the transient engines above.
package ctmc
