#pragma once

/// \file nibble.hpp
/// Nibble and ApproximateNibble (paper, Appendix A.1-A.2).
///
/// Nibble(G, v, φ, b) runs the ε_b-truncated lazy walk from v for t₀ steps
/// and, at each step, sweeps the support by ρ̃ = p̃/deg looking for a prefix
/// π̃_t(1..j) satisfying
///   (C.1) Φ(π̃_t(1..j)) <= φ
///   (C.2) ρ̃_t(π̃_t(j)) >= γ / Vol(π̃_t(1..j))
///   (C.3) (5/6) Vol(V) >= Vol(π̃_t(1..j)) >= (5/7) 2^{b-1}.
///
/// ApproximateNibble only inspects the O(φ⁻¹ log Vol) geometric candidate
/// sequence (j_x), testing the relaxed (C.1*)-(C.3*) at interior candidates
/// -- the price of distributed implementability (Lemma 9) is a 12x
/// conductance slack.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/access.hpp"
#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"
#include "sparsecut/nibble_params.hpp"

namespace xd::sparsecut {

/// Supports of at least this many vertices are swept by a team as wide as
/// the calling epoch item (congest/scheduler.hpp): the sort runs in
/// parallel chunks plus a merge, and the prefix-cut scan in parallel
/// ranges.  Smaller supports are swept on one thread.  Placed by timing
/// every sweep of a build-powerlaw prepare_artifact at two threads with
/// the floor at 0 and at infinity (4-vCPU guest, two runs, mean per call
/// by support size): a team start costs about 45 us, width 2 ties width 1
/// at 512-2047 vertices and wins from 2048 on (709-725 vs 854-1049 us at
/// 2048-4095, 1222-1383 vs 1662-2044 us at 4096-8191).
inline constexpr std::size_t kWideSweepFloor = 2048;

/// Output of one Nibble-family run, plus the cost observables the round
/// ledger charges from (docs/rounds.md).
struct NibbleResult {
  /// The cut C = π̃_t(1..j); empty when no (t, j) passed.
  VertexSet cut;
  /// Walk step at which the cut was found (0 = none).
  int t_used = 0;
  /// 1-based sweep prefix length (0 = none).
  std::size_t j_used = 0;
  /// Conductance of the returned prefix in the run graph.
  double cut_conductance = std::numeric_limits<double>::infinity();
  /// Vol of the returned prefix.
  std::uint64_t cut_volume = 0;

  /// Every vertex that ever carried positive truncated mass; P* (Def. 2) is
  /// exactly the set of edges incident to these.
  std::vector<VertexId> touched;
  /// Diffusion steps actually executed (<= t₀; stops early on success or
  /// when the support dies).
  int steps_run = 0;
  /// Number of (t, candidate-j) condition evaluations (each costs one
  /// O(height · log) distributed binary search per Lemma 9).
  std::uint64_t sweep_candidates = 0;
  /// Σ_t Vol(support at t): the kernel message count of the diffusion.
  std::uint64_t work_volume = 0;

  [[nodiscard]] bool found() const { return !cut.empty(); }
};

/// Exact Nibble (checks every prefix).  Requires 1 <= b <= prm.ell and
/// deg(v) > 0.  Generic over GraphAccess: run on a GraphView it walks G{S}
/// in place (masked slots deposit mass back), bit-identical to a run on the
/// materialized graph modulo the id renumbering.
template <GraphAccess G>
NibbleResult nibble(const G& g, VertexId v, const NibbleParams& prm, int b);

/// ApproximateNibble (checks the geometric candidate sequence only).
template <GraphAccess G>
NibbleResult approximate_nibble(const G& g, VertexId v,
                                const NibbleParams& prm, int b);

}  // namespace xd::sparsecut
