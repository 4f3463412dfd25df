#include "sparsecut/nibble.hpp"

#include <algorithm>
#include <cmath>

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
  util::StampedBitset touched;    ///< vertices that ever carried mass
  util::StampedBitset in_prefix;  ///< the current sweep prefix
  std::vector<SweepRecord> records;
  SupportSweep sweep;
  std::vector<std::size_t> candidates;
};

NibbleScratch& nibble_scratch() {
  thread_local NibbleScratch scratch;
  return scratch;
}

/// Fills scratch.sweep with the sweep of `dist` (ρ̃ descending, ties by id
/// ascending).
template <GraphAccess G>
void build_sweep(const G& g, const SparseDist& dist, NibbleScratch& scratch) {
  SupportSweep& s = scratch.sweep;
  std::vector<SweepRecord>& records = scratch.records;
  const std::size_t k = dist.size();
  records.clear();
  for (std::size_t i = 0; i < k; ++i) {
    records.push_back(SweepRecord{dist.mass[i] / g.degree(dist.support[i]),
                                  dist.support[i]});
  }
  std::sort(records.begin(), records.end(),
            [](const SweepRecord& a, const SweepRecord& b) {
              if (a.rho != b.rho) return a.rho > b.rho;
              return a.id < b.id;
            });

  s.order.resize(k);
  s.rho.resize(k);
  s.vol.resize(k);
  s.cut.resize(k);
  util::StampedBitset& in_prefix = scratch.in_prefix;
  in_prefix.begin_epoch(g.num_vertices());
  std::uint64_t vol = 0;
  std::int64_t cut = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const VertexId v = records[j].id;
    s.order[j] = v;
    s.rho[j] = records[j].rho;
    vol += g.degree(v);
    std::int64_t nonloop = 0;
    std::int64_t inside = 0;
    for (VertexId u : g.neighbors(v)) {
      if (u == v) continue;
      ++nonloop;
      if (in_prefix.test(u)) ++inside;
    }
    cut += nonloop - 2 * inside;
    XD_CHECK(cut >= 0);
    in_prefix.set(v);
    s.vol[j] = vol;
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
