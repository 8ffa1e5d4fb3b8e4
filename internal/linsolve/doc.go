// Package linsolve gives the circuit engines one assembly-and-solve
// interface with interchangeable dense and sparse backends. Engines stamp
// coefficients with Add, then Solve; whether an O(n^3) dense LU or a
// Markowitz sparse LU runs underneath is a per-simulation option, which is
// how the scaling benchmarks isolate algorithmic speedups (SWEC vs NR)
// from backend effects.
//
// Both backends exploit the fact that a circuit's sparsity pattern is
// fixed for the life of a run. The sparse backend records the first
// assembly's Add sequence, compiles it into a slot table (every later
// Reset/Add is a pure array write — zero map operations), performs the
// min-degree symbolic analysis once, and redoes only the numerics on
// later steps, falling back to a fresh full factorization when a reused
// pivot drifts numerically bad. The dense backend reuses its
// factorization storage. In steady state neither backend allocates on
// the Reset → Add... → Solve cycle. Both can also snapshot the
// coefficients stamped since Reset (MarkBase) and return to them
// (RestoreBase), so an engine stamps a run's time-invariant
// conductances once. See DESIGN.md §7.
//
// The same pattern-stability argument extends across whole simulations:
// a Monte Carlo trial of a perturbed circuit stamps the identical
// sequence, so the process-variation runner (internal/vary) hands one
// solver to every trial a worker executes and the per-step hot path
// stays allocation-free batch-wide. CarriesPivotOrder tells such batch
// runners whether a backend's pivot order is history-dependent and must
// be re-warmed after a drift fallback (DESIGN.md §9).
package linsolve
