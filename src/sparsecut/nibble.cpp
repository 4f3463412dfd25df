#include "sparsecut/nibble.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "congest/scheduler.hpp"
#include "graph/graph_view.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/bitset_arena.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {

namespace {

using spectral::SparseDist;

/// Sweep arrays over the support of a sparse distribution, ordered by
/// ρ̃ descending with ties by id (paper: "breaking ties arbitrarily, e.g.
/// by comparing IDs").
struct SupportSweep {
  std::vector<VertexId> order;
  std::vector<double> rho;              // per position
  std::vector<std::uint64_t> vol;       // prefix volume
  std::vector<std::uint64_t> cut;       // prefix |∂|

  [[nodiscard]] std::size_t size() const { return order.size(); }

  [[nodiscard]] double conductance(std::size_t j, std::uint64_t total_volume) const {
    const std::uint64_t v = vol[j - 1];
    const std::uint64_t rest = total_volume - v;
    const std::uint64_t denom = std::min(v, rest);
    if (denom == 0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(cut[j - 1]) / static_cast<double>(denom);
  }
};

/// One sweep record: ρ̃ and id packed side by side, so the sweep order is
/// a direct sort of the records rather than an indirect index sort.
struct SweepRecord {
  double rho;
  VertexId id;
};

/// Per-thread Nibble buffers, reused across steps and runs (O(n) bits plus
/// O(max support) records per thread).  run_nibble is not reentrant, so
/// one instance per thread suffices.
struct NibbleScratch {
  util::StampedBitset touched;  ///< vertices that ever carried mass
  std::vector<SweepRecord> records;
  std::vector<SweepRecord> merged;  ///< sort and merge ping-pong buffer
  /// Per sweep team member: the sweep prefix before its current position.
  std::vector<util::StampedBitset> member_prefix;
  std::vector<std::int64_t> cut_delta;  ///< per position: change of |∂|
  SupportSweep sweep;
  std::vector<std::size_t> candidates;
};

NibbleScratch& nibble_scratch() {
  thread_local NibbleScratch scratch;
  return scratch;
}

/// The sweep order: ρ̃ descending, ties by id ascending.  Ids are unique,
/// so the order is strict and any correct sort or merge yields the same
/// sequence.
bool sweeps_before(const SweepRecord& a, const SweepRecord& b) {
  if (a.rho != b.rho) return a.rho > b.rho;
  return a.id < b.id;
}

/// Fills scratch.sweep with the sweep of `dist` (ρ̃ descending, ties by id
/// ascending).  The support is split across a team as wide as the calling
/// epoch item once it reaches kWideSweepFloor vertices (one thread below):
///  * each member sorts one chunk of the (ρ̃, id) records and the sorted
///    chunks are merged pairwise;
///  * member 0 takes the prefix volumes; each member then takes a range
///    [lo, hi) of positions of about equal volume, marks the vertices
///    before lo in its own prefix bitset, and scans from lo to hi, adding
///    each vertex's non-loop slots to the cut and taking back twice those
///    that land inside the prefix;
///  * the caller sums the per-position changes into cut.
/// The order is strict and integer sums are exact, so the arrays are the
/// same at every width.
template <GraphAccess G>
void build_sweep(const G& g, const SparseDist& dist, NibbleScratch& scratch) {
  SupportSweep& s = scratch.sweep;
  const std::size_t k = dist.size();
  scratch.records.clear();
  for (std::size_t i = 0; i < k; ++i) {
    scratch.records.push_back(SweepRecord{
        dist.mass[i] / g.degree(dist.support[i]), dist.support[i]});
  }
  s.order.resize(k);
  s.rho.resize(k);
  s.vol.resize(k);
  s.cut.resize(k);
  scratch.merged.resize(k);
  scratch.cut_delta.resize(k);
  const int width =
      k >= kWideSweepFloor ? congest::EpochScheduler::item_width() : 1;
  scratch.member_prefix.resize(
      std::max(scratch.member_prefix.size(), static_cast<std::size_t>(width)));
  const auto chunk = [&](int c) {
    return k * static_cast<std::size_t>(c) / static_cast<std::size_t>(width);
  };
  congest::EpochScheduler::run_team(width, [&](int w,
                                               congest::TeamBarrier& barrier) {
    SweepRecord* src = scratch.records.data();
    SweepRecord* dst = scratch.merged.data();
    std::sort(src + chunk(w), src + chunk(w + 1), sweeps_before);
    for (int span = 1; span < width; span *= 2) {
      barrier.sync();
      if (w % (2 * span) == 0) {
        const std::size_t lo = chunk(w);
        const std::size_t mid = chunk(std::min(w + span, width));
        const std::size_t hi = chunk(std::min(w + 2 * span, width));
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo,
                   sweeps_before);
      }
      std::swap(src, dst);
    }
    barrier.sync();
    for (std::size_t j = chunk(w); j < chunk(w + 1); ++j) {
      s.order[j] = src[j].id;
      s.rho[j] = src[j].rho;
    }
    barrier.sync();
    if (w == 0) {
      std::uint64_t vol = 0;
      for (std::size_t j = 0; j < k; ++j) {
        vol += g.degree(s.order[j]);
        s.vol[j] = vol;
      }
    }
    barrier.sync();
    // Positions [lo, hi): the w-th width-fraction of the support volume.
    const auto by_volume = [&](int c) {
      if (c == 0) return std::size_t{0};
      if (c == width) return k;
      const std::uint64_t target = s.vol[k - 1] *
                                   static_cast<std::uint64_t>(c) /
                                   static_cast<std::uint64_t>(width);
      return static_cast<std::size_t>(
          std::upper_bound(s.vol.begin(), s.vol.end(), target) -
          s.vol.begin());
    };
    const std::size_t lo = by_volume(w);
    const std::size_t hi = by_volume(w + 1);
    util::StampedBitset& in_prefix =
        scratch.member_prefix[static_cast<std::size_t>(w)];
    in_prefix.begin_epoch(g.num_vertices());
    for (std::size_t j = 0; j < lo; ++j) in_prefix.set(s.order[j]);
    for (std::size_t j = lo; j < hi; ++j) {
      const VertexId v = s.order[j];
      std::int64_t nonloop = 0;
      std::int64_t inside = 0;
      for (VertexId u : g.neighbors(v)) {
        if (u == v) continue;
        ++nonloop;
        if (in_prefix.test(u)) ++inside;
      }
      scratch.cut_delta[j] = nonloop - 2 * inside;
      in_prefix.set(v);
    }
  });
  std::int64_t cut = 0;
  for (std::size_t j = 0; j < k; ++j) {
    cut += scratch.cut_delta[j];
    XD_CHECK(cut >= 0);
    s.cut[j] = static_cast<std::uint64_t>(cut);
  }
}

/// The geometric candidate sequence (j_x) of ApproximateNibble: j_1 = 1 and
/// j_i = max(j_{i-1}+1, largest j with Vol(1..j) <= (1+φ) Vol(1..j_{i-1})).
void candidate_sequence(const SupportSweep& sweep, double phi,
                        std::vector<std::size_t>& js) {
  js.clear();
  const std::size_t jmax = sweep.size();
  if (jmax == 0) return;
  js.push_back(1);
  while (js.back() != jmax) {
    const std::size_t prev = js.back();
    const double limit = (1.0 + phi) * static_cast<double>(sweep.vol[prev - 1]);
    // Largest j with vol <= limit (prefix volumes are increasing).
    auto it = std::upper_bound(sweep.vol.begin(), sweep.vol.end(), limit,
                               [](double lim, std::uint64_t v) {
                                 return lim < static_cast<double>(v);
                               });
    const auto by_volume = static_cast<std::size_t>(it - sweep.vol.begin());
    js.push_back(std::max(prev + 1, by_volume));
  }
}

struct Conditions {
  bool c1 = false;
  bool c2 = false;
  bool c3 = false;
  [[nodiscard]] bool all() const { return c1 && c2 && c3; }
};

/// Exact (C.1)-(C.3) at prefix j.
Conditions exact_conditions(const SupportSweep& sweep, std::size_t j,
                            const NibbleParams& prm, std::uint64_t total_volume,
                            int b) {
  Conditions c;
  c.c1 = sweep.conductance(j, total_volume) <= prm.phi;
  c.c2 = sweep.rho[j - 1] >=
         prm.gamma / static_cast<double>(sweep.vol[j - 1]);
  const double vol = static_cast<double>(sweep.vol[j - 1]);
  c.c3 = vol <= (5.0 / 6.0) * static_cast<double>(total_volume) &&
         vol >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
  return c;
}

/// Relaxed (C.1*)-(C.3*) at candidate j_x with predecessor j_{x-1}.
Conditions starred_conditions(const SupportSweep& sweep, std::size_t jx,
                              std::size_t jprev, const NibbleParams& prm,
                              std::uint64_t total_volume, int b) {
  Conditions c;
  c.c1 = sweep.conductance(jx, total_volume) <= prm.star_relax * prm.phi;
  c.c2 = sweep.rho[jprev - 1] >=
         prm.gamma / static_cast<double>(sweep.vol[jx - 1]);
  const double vol = static_cast<double>(sweep.vol[jx - 1]);
  c.c3 = vol <= (11.0 / 12.0) * static_cast<double>(total_volume) &&
         vol >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
  return c;
}

VertexSet sweep_prefix_to_set(const SupportSweep& sweep, std::size_t j) {
  return VertexSet(std::vector<VertexId>(
      sweep.order.begin(), sweep.order.begin() + static_cast<std::ptrdiff_t>(j)));
}

/// Relative L1 movement between consecutive truncated distributions, by a
/// deterministic two-pointer merge over the ascending supports.  The
/// accumulation order is the vertex order, so a GraphView run (ambient ids)
/// and a materialized run (local ids) sum in the same sequence -- a hash-map
/// iteration here would tie the float sum to the id *values* and break the
/// view/materialized bit-identity.
std::pair<double, double> stall_movement(const SparseDist& prev,
                                         const SparseDist& dist) {
  double moved = 0.0;
  double total = 0.0;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < prev.size() || b < dist.size()) {
    if (b == dist.size() ||
        (a < prev.size() && prev.support[a] < dist.support[b])) {
      moved += prev.mass[a];
      ++a;
    } else if (a == prev.size() || dist.support[b] < prev.support[a]) {
      moved += dist.mass[b];
      total += dist.mass[b];
      ++b;
    } else {
      moved += std::abs(dist.mass[b] - prev.mass[a]);
      total += dist.mass[b];
      ++a;
      ++b;
    }
  }
  return {moved, total};
}

template <GraphAccess G>
NibbleResult run_nibble(const G& g, VertexId v, const NibbleParams& prm,
                        int b, bool approximate) {
  XD_CHECK_MSG(b >= 1 && b <= prm.ell, "scale b=" << b << " outside [1, ℓ]");
  XD_CHECK_MSG(g.degree(v) > 0, "start vertex " << v << " is isolated");

  const double eps = prm.eps_b(b);
  const std::uint64_t total_volume = g.volume();

  NibbleScratch& scratch = nibble_scratch();
  NibbleResult result;
  const auto touch = [&](VertexId u) {
    if (scratch.touched.test(u)) return;
    scratch.touched.set(u);
    result.touched.push_back(u);
  };
  scratch.touched.begin_epoch(g.num_vertices());
  SparseDist dist = SparseDist::point(v);
  touch(v);
  int stall_run = 0;

  for (int t = 1; t <= prm.t0; ++t) {
    result.work_volume += [&] {
      std::uint64_t w = 0;
      for (VertexId u : dist.support) w += g.degree(u);
      return w;
    }();
    const SparseDist prev = std::move(dist);
    dist = spectral::truncated_step(g, prev, eps);
    result.steps_run = t;
    if (dist.size() == 0) break;  // all mass truncated away
    for (VertexId u : dist.support) touch(u);

    if (prm.stall_tolerance > 0.0) {
      const auto [moved, total] = stall_movement(prev, dist);
      stall_run = (total > 0 && moved / total < prm.stall_tolerance)
                      ? stall_run + 1
                      : 0;
    }

    build_sweep(g, dist, scratch);
    const SupportSweep& sweep = scratch.sweep;
    if (approximate) {
      std::vector<std::size_t>& js = scratch.candidates;
      candidate_sequence(sweep, prm.phi, js);
      for (std::size_t x = 0; x < js.size(); ++x) {
        const std::size_t jx = js[x];
        ++result.sweep_candidates;
        const bool boundary = x == 0 || jx == js[x - 1] + 1;
        const Conditions c =
            boundary ? exact_conditions(sweep, jx, prm, total_volume, b)
                     : starred_conditions(sweep, jx, js[x - 1], prm,
                                          total_volume, b);
        if (c.all()) {
          result.cut = sweep_prefix_to_set(sweep, jx);
          result.t_used = t;
          result.j_used = jx;
          result.cut_conductance = sweep.conductance(jx, total_volume);
          result.cut_volume = sweep.vol[jx - 1];
          break;
        }
      }
    } else {
      for (std::size_t j = 1; j <= sweep.size(); ++j) {
        ++result.sweep_candidates;
        if (exact_conditions(sweep, j, prm, total_volume, b).all()) {
          result.cut = sweep_prefix_to_set(sweep, j);
          result.t_used = t;
          result.j_used = j;
          result.cut_conductance = sweep.conductance(j, total_volume);
          result.cut_volume = sweep.vol[j - 1];
          break;
        }
      }
    }
    if (result.found()) break;
    if (prm.stall_tolerance > 0.0 && stall_run >= prm.stall_patience) break;
  }

  std::sort(result.touched.begin(), result.touched.end());
  return result;
}

}  // namespace

template <GraphAccess G>
NibbleResult nibble(const G& g, VertexId v, const NibbleParams& prm, int b) {
  return run_nibble(g, v, prm, b, /*approximate=*/false);
}

template <GraphAccess G>
NibbleResult approximate_nibble(const G& g, VertexId v,
                                const NibbleParams& prm, int b) {
  return run_nibble(g, v, prm, b, /*approximate=*/true);
}

template NibbleResult nibble(const Graph&, VertexId, const NibbleParams&, int);
template NibbleResult nibble(const GraphView&, VertexId, const NibbleParams&,
                             int);
template NibbleResult approximate_nibble(const Graph&, VertexId,
                                         const NibbleParams&, int);
template NibbleResult approximate_nibble(const GraphView&, VertexId,
                                         const NibbleParams&, int);

}  // namespace xd::sparsecut
