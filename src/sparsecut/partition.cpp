#include "sparsecut/partition.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "sparsecut/parallel_nibble.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {

template <GraphAccess G>
PartitionResult partition(const G& g, const NibbleParams& prm, Rng& rng,
                          congest::RoundLedger& ledger,
                          std::optional<std::uint32_t> diameter_hint) {
  PartitionResult out;
  const std::uint64_t rounds_before = ledger.rounds();
  const std::uint64_t total_volume = g.volume();
  XD_CHECK(total_volume > 0);

  // W and C as sorted id lists in g's id space.
  const auto all = g.vertices();
  VertexSet w(std::vector<VertexId>(all.begin(), all.end()));
  VertexSet c;
  // G{W_{i-1}} as a zero-copy overlay: same degrees, |E|, and volume a
  // materialized induced_with_loops would report, no CSR rebuilt per
  // restart.  Cut ids come back in g's own id space.  W only changes when
  // an iteration cuts, so an empty round keeps the view.
  std::optional<GraphView> sub;
  std::uint64_t removed_volume = 0;
  int empty_streak = 0;

  for (std::uint64_t i = 1; i <= prm.max_iterations; ++i) {
    out.iterations = i;

    if (!sub) sub.emplace(restrict_view(g, w));
    if (sub->volume() == 0) break;
    const NibbleParams sub_prm = prm.rescaled(
        std::max<std::size_t>(sub->num_edges(), 1), sub->volume());

    ParallelNibbleResult pn =
        parallel_nibble(*sub, sub_prm, rng, ledger, diameter_hint);
    if (pn.overlap_aborted) ++out.overlap_aborts;

    if (!pn.cut.empty() && prm.preset == Preset::kPractical) {
      // Per-iteration contract check: the union of φ-sparse prefixes should
      // stay within 2x of the Theorem 3 contract (6 φ); a union that does
      // not is treated as an empty round (Lemma 7 gives this structurally
      // under paper constants).
      if (conductance(*sub, pn.cut) > 12.0 * sub_prm.phi) {
        pn.cut = VertexSet{};
      }
    }

    if (pn.cut.empty()) {
      ++empty_streak;
      if (prm.empty_streak_quit > 0 && empty_streak >= prm.empty_streak_quit) {
        break;
      }
      if (i == prm.max_iterations) out.hit_iteration_cap = true;
      continue;
    }
    empty_streak = 0;

    VertexSet rest = w.set_difference(pn.cut);
    XD_CHECK(rest.size() + pn.cut.size() == w.size());  // the cut lies in W
    for (VertexId pv : pn.cut) removed_volume += g.degree(pv);
    w = std::move(rest);
    c = c.set_union(pn.cut);
    sub.reset();

    // Stop when the remaining volume dropped below (47/48) Vol(V).
    if (static_cast<double>(total_volume - removed_volume) <=
        (47.0 / 48.0) * static_cast<double>(total_volume)) {
      break;
    }
    if (i == prm.max_iterations) out.hit_iteration_cap = true;
  }

  out.cut = std::move(c);
  if (!out.cut.empty()) {
    out.conductance = conductance(g, out.cut);
    out.balance = balance(g, out.cut);
  }
  out.rounds = ledger.rounds() - rounds_before;
  return out;
}

template PartitionResult partition(const Graph&, const NibbleParams&, Rng&,
                                   congest::RoundLedger&,
                                   std::optional<std::uint32_t>);
template PartitionResult partition(const GraphView&, const NibbleParams&, Rng&,
                                   congest::RoundLedger&,
                                   std::optional<std::uint32_t>);

double theorem3_phi_run(double phi, std::size_t m, Preset preset) {
  XD_CHECK(phi > 0 && m >= 1);
  if (preset == Preset::kPaper) {
    const double ln4 = std::log(static_cast<double>(m)) + 4.0;
    return std::min(std::cbrt(144.0 * phi * ln4 * ln4), 1.0 / 12.0);
  }
  // Practical: φ_run = φ -- with star_relax = 1 every accepted prefix is
  // φ-sparse, so the target needs no re-scaling.
  return std::min(phi, 0.25);
}

double theorem3_conductance_bound(double phi, std::size_t m, std::uint64_t vol,
                                  Preset preset) {
  XD_CHECK(phi > 0 && m >= 1);
  if (preset == Preset::kPaper) {
    const double w =
        10.0 * std::ceil(std::log(static_cast<double>(std::max<std::uint64_t>(vol, 2))));
    return 276.0 * w * theorem3_phi_run(phi, m, Preset::kPaper);
  }
  return 6.0 * phi;
}

template <GraphAccess G>
PartitionResult nearly_most_balanced_sparse_cut(
    const G& g, double phi, Preset preset, Rng& rng,
    congest::RoundLedger& ledger, std::optional<std::uint32_t> diameter_hint,
    bool thorough) {
  const std::size_t m = std::max<std::size_t>(g.num_edges(), 1);
  const double phi_run = theorem3_phi_run(phi, m, preset);
  NibbleParams prm = preset == Preset::kPaper
                         ? NibbleParams::paper(phi_run, m, g.volume())
                         : NibbleParams::practical(phi_run, m, g.volume());
  if (thorough) {
    prm.max_iterations *= 8;
    prm.empty_streak_quit = 0;
  }
  PartitionResult res = partition(g, prm, rng, ledger, diameter_hint);
  if (res.found() && preset == Preset::kPractical) {
    // Enforce the Theorem 3 contract by measurement (paper mode has it
    // structurally from Lemma 7/8).
    const double bound = theorem3_conductance_bound(phi, m, g.volume(), preset);
    if (res.conductance > bound + 1e-12) {
      res.cut = VertexSet{};
      res.conductance = std::numeric_limits<double>::infinity();
      res.balance = 0.0;
    }
  }
  return res;
}

template PartitionResult nearly_most_balanced_sparse_cut(
    const Graph&, double, Preset, Rng&, congest::RoundLedger&,
    std::optional<std::uint32_t>, bool);
template PartitionResult nearly_most_balanced_sparse_cut(
    const GraphView&, double, Preset, Rng&, congest::RoundLedger&,
    std::optional<std::uint32_t>, bool);

}  // namespace xd::sparsecut
