#pragma once

/// \file mixing.hpp
/// Mixing time and spectral gap of the lazy walk.
///
/// The paper leans on the Jerrum–Sinclair relation (§1):
///   Θ(1/Φ_G)  <=  τ_mix(G)  <=  Θ(log n / Φ_G²),
/// and Theorem 2's routing uses τ_mix = O(log n / φ²) on each component of
/// the decomposition.  Experiment E7 reproduces the relation empirically.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace xd::spectral {

/// Outcome of the lazy walk's power iteration (lazy_power_iteration).
struct LazySpectrum {
  /// Rayleigh quotient of the last iteration (unclamped).
  double lambda = 0;
  /// The iterate vanished before `iterations` ran out: the deflated walk
  /// maps it to exactly zero, so the walk mixes in one step.  (K_2 mixes in
  /// one step too, but there rounding leaves a tiny iterate that is
  /// renormalized; a start whose mass sits on isolated vertices vanishes.)
  bool mixes_in_one_step = false;
  /// The last iterate in the symmetrized space, deflated, unnormalized;
  /// D^{-1/2} y is the approximate Fiedler vector (spectral/fiedler.hpp).
  std::vector<double> y;

  /// λ₂ estimate: 0 when the walk mixes in one step, else λ clamped to
  /// [0, 1].
  [[nodiscard]] double lambda2() const;
};

/// Power iteration on the symmetrized walk N = D^{-1/2} M D^{1/2} with the
/// stationary component deflated, from a fixed deterministic start.
/// Requires >= 2 vertices and positive volume.
///
/// The walk runs from a per-graph plan (docs/routing.md): every receiver
/// sums its terms -- the lazy half of its own mass and one share per
/// adjacency slot -- in ascending sender order, the order of the dense
/// push step M x, so each iterate is bit-identical to that step.  Inside
/// an epoch item of width > 1 (congest/scheduler.hpp) the receivers are
/// split across a team of threads while one thread runs the three
/// reductions in index order; the result does not depend on the width.
LazySpectrum lazy_power_iteration(const Graph& g, int iterations = 400);

/// Second-largest eigenvalue λ₂ of the lazy walk matrix M (all eigenvalues
/// of M lie in [0, 1]): lazy_power_iteration(g, iterations).lambda2().
/// The spectral gap 1 - λ₂ controls mixing:
/// τ(ε) <= log(1/(ε π_min)) / (1 - λ₂).
double lazy_second_eigenvalue(const Graph& g, int iterations = 400);

/// Exact-simulation mixing time: the smallest t such that the walk from the
/// worst of `starts` sampled start vertices satisfies
///   max_u |p_t(u) - π(u)| / π(u) <= eps     (relative pointwise distance).
/// Cost O(starts * t * m); meant for graphs up to a few thousand vertices.
/// Returns `cap` if not mixed within `cap` steps.
std::uint32_t mixing_time_simulated(const Graph& g, double eps = 0.25,
                                    int starts = 3, std::uint32_t cap = 1u << 20);

/// Eigenvalue-based mixing-time estimate log(Vol/ (eps * deg_min)) / (1-λ₂);
/// cheap and tight enough for round-cost modeling (used by the router).
std::uint32_t mixing_time_estimate(const Graph& g, double eps = 0.25);

}  // namespace xd::spectral
