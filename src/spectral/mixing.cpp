#include "spectral/mixing.hpp"

#include <algorithm>
#include <cmath>

#include "congest/scheduler.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/check.hpp"

namespace xd::spectral {

namespace {

/// Graphs below this volume (adjacency slots) iterate at width 1.  A
/// barrier round trip costs about 0.4 us, but below this volume the serial
/// reductions and the cache lines the two members hand each other per
/// iteration outweigh the split.  Placed by timing the 400 iterations on
/// preferential_attachment(n, 4) graphs at widths 1 and 2 (4-vCPU guest,
/// best of 7, two runs): width 2 is 1.2-1.6x slower up to volume 32k,
/// 0.92-1.12x at 64k, and 0.64-0.85x from 128k on.
constexpr std::uint64_t kWideVolumeFloor = std::uint64_t{1} << 16;

/// Term ids of the plan: term 2v is the lazy half x(v)/2 of v's mass,
/// term 2v + 1 the share x(v)/(2 deg v) v sends along each slot.
constexpr std::uint32_t lazy_term(VertexId v) { return 2 * v; }
constexpr std::uint32_t slot_term(VertexId v) { return 2 * v + 1; }

/// Receiver u of the push step M x collects, in ascending sender order,
/// one slot share per slot of every neighbor w < u, then its own lazy half
/// and one share per loop slot, then the shares of the neighbors w > u.
/// The plan lists exactly that sequence per receiver, as term ids -- which
/// ascend, so the lists are filled by one pass over the senders in order.
struct WalkPlan {
  /// Receiver u's terms are terms[first[u], first[u + 1]).
  std::vector<std::size_t> first;
  std::vector<std::uint32_t> terms;
};

WalkPlan build_plan(const Graph& g) {
  const std::size_t n = g.num_vertices();
  WalkPlan plan;
  plan.first.resize(n + 1);
  plan.first[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    plan.first[u + 1] = plan.first[u] + g.degree(u) + 1;
  }
  plan.terms.resize(plan.first[n]);
  std::vector<std::size_t> cursor(plan.first.begin(), plan.first.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    plan.terms[cursor[v]++] = lazy_term(v);
    for (const VertexId u : g.neighbors(v)) {
      plan.terms[cursor[u]++] = slot_term(v);
    }
  }
  return plan;
}

/// out[u] = the sum of receiver u's terms in plan order, for u in [lo, hi).
/// A sum is one dependent chain of adds, so four receivers are summed in
/// lockstep -- four independent chains -- for as many terms as all four
/// have; each finishes its own tail alone.  Every sum keeps its order.
void sum_receivers(const WalkPlan& plan, const std::vector<double>& term,
                   std::size_t lo, std::size_t hi, std::vector<double>& out) {
  const std::size_t* first = plan.first.data();
  const std::uint32_t* ids = plan.terms.data();
  const double* x = term.data();
  const auto tail = [&](std::size_t k, std::size_t end, double m) {
    for (; k < end; ++k) m += x[ids[k]];
    return m;
  };
  std::size_t u = lo;
  for (; u + 4 <= hi; u += 4) {
    const std::size_t a = first[u];
    const std::size_t b = first[u + 1];
    const std::size_t c = first[u + 2];
    const std::size_t d = first[u + 3];
    const std::size_t e = first[u + 4];
    const std::size_t common = std::min({b - a, c - b, d - c, e - d});
    double ma = 0.0;
    double mb = 0.0;
    double mc = 0.0;
    double md = 0.0;
    for (std::size_t i = 0; i < common; ++i) {
      ma += x[ids[a + i]];
      mb += x[ids[b + i]];
      mc += x[ids[c + i]];
      md += x[ids[d + i]];
    }
    out[u] = tail(a + common, b, ma);
    out[u + 1] = tail(b + common, c, mb);
    out[u + 2] = tail(c + common, d, mc);
    out[u + 3] = tail(d + common, e, md);
  }
  for (; u < hi; ++u) out[u] = tail(first[u], first[u + 1], 0.0);
}

}  // namespace

double LazySpectrum::lambda2() const {
  return mixes_in_one_step ? 0.0 : std::clamp(lambda, 0.0, 1.0);
}

LazySpectrum lazy_power_iteration(const Graph& g, int iterations) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 2);
  XD_CHECK_MSG(n < (std::size_t{1} << 31), "term ids need 2n < 2^32");
  const double vol = static_cast<double>(g.volume());
  XD_CHECK(vol > 0);

  // Work with y = D^{-1/2} x; N = D^{-1/2} M D^{1/2} is symmetric with top
  // eigenvector proportional to D^{1/2} 1.  Deflate it and power-iterate.
  std::vector<double> top(n);
  std::vector<double> sqrt_deg(n);
  for (VertexId v = 0; v < n; ++v) {
    top[v] = std::sqrt(g.degree(v) / vol);
    sqrt_deg[v] = std::sqrt(static_cast<double>(g.degree(v)));
  }
  const WalkPlan plan = build_plan(g);

  LazySpectrum out;
  std::vector<double>& y = out.y;
  y.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Deterministic pseudo-random start, orthogonalized below.
    y[v] = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
  }
  double dot = 0;
  for (std::size_t i = 0; i < n; ++i) dot += y[i] * top[i];
  double sq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] -= dot * top[i];
    sq += y[i] * y[i];
  }
  double len = std::sqrt(sq);

  // Receiver blocks of about equal term counts, one per team member.
  const int width =
      g.volume() < kWideVolumeFloor ? 1 : congest::EpochScheduler::item_width();
  std::vector<std::size_t> block(static_cast<std::size_t>(width) + 1, n);
  for (int w = 0; w < width; ++w) {
    const std::size_t target =
        plan.terms.size() * static_cast<std::size_t>(w) /
        static_cast<std::size_t>(width);
    block[static_cast<std::size_t>(w)] = static_cast<std::size_t>(
        std::lower_bound(plan.first.begin(), plan.first.end() - 1, target) -
        plan.first.begin());
  }

  std::vector<double> term(2 * n);
  std::vector<double> next(n);
  congest::EpochScheduler::run_team(width, [&](int w,
                                               congest::TeamBarrier& barrier) {
    const std::size_t lo = block[static_cast<std::size_t>(w)];
    const std::size_t hi = block[static_cast<std::size_t>(w) + 1];
    for (int it = 0; it < iterations; ++it) {
      if (len < 1e-300) {  // the deflated walk vanished: it mixes in one step
        if (w == 0) out.mixes_in_one_step = true;
        return;
      }
      // Normalize; x = D^{1/2} y, and the terms M x is summed from.
      for (std::size_t v = lo; v < hi; ++v) {
        y[v] /= len;
        const double x = y[v] * sqrt_deg[v];
        const double deg = g.degree(static_cast<VertexId>(v));
        term[lazy_term(static_cast<VertexId>(v))] = x / 2.0;
        term[slot_term(static_cast<VertexId>(v))] =
            deg > 0 ? x / (2.0 * deg) : 0.0;
      }
      barrier.sync();
      // y' = D^{-1/2} M x, each receiver in ascending sender order.
      sum_receivers(plan, term, lo, hi, next);
      for (std::size_t u = lo; u < hi; ++u) {
        next[u] = sqrt_deg[u] > 0 ? next[u] / sqrt_deg[u] : 0.0;
      }
      barrier.sync();
      // Deflate, Rayleigh quotient and the next norm, each in index order.
      if (w == 0) {
        double d = 0;
        for (std::size_t i = 0; i < n; ++i) d += next[i] * top[i];
        double lambda = 0;
        double s = 0;
        for (std::size_t i = 0; i < n; ++i) {
          next[i] -= d * top[i];
          lambda += next[i] * y[i];
          s += next[i] * next[i];
        }
        out.lambda = lambda;
        y.swap(next);
        len = std::sqrt(s);
      }
      barrier.sync();
    }
  });
  return out;
}

double lazy_second_eigenvalue(const Graph& g, int iterations) {
  return lazy_power_iteration(g, iterations).lambda2();
}

std::uint32_t mixing_time_simulated(const Graph& g, double eps, int starts,
                                    std::uint32_t cap) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 1);
  const auto pi = stationary(g);

  // Deterministic spread of start vertices (worst-start is what matters;
  // a handful of seeds approximates it well on vertex-transitive families).
  std::vector<VertexId> start_vs;
  for (int s = 0; s < starts; ++s) {
    start_vs.push_back(static_cast<VertexId>((s * n) / static_cast<std::size_t>(starts)));
  }

  std::uint32_t worst = 0;
  for (VertexId sv : start_vs) {
    if (g.degree(sv) == 0) continue;
    std::vector<double> p(n, 0.0);
    p[sv] = 1.0;
    std::uint32_t t = 0;
    for (; t < cap; ++t) {
      double dist = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (pi[v] > 0) {
          dist = std::max(dist, std::abs(p[v] - pi[v]) / pi[v]);
        }
      }
      if (dist <= eps) break;
      p = lazy_step(g, p);
    }
    worst = std::max(worst, t);
  }
  return worst;
}

std::uint32_t mixing_time_estimate(const Graph& g, double eps) {
  const double lambda2 = lazy_second_eigenvalue(g);
  const double gap = 1.0 - lambda2;
  if (gap <= 1e-12) return std::numeric_limits<std::uint32_t>::max();
  std::uint32_t deg_min = std::numeric_limits<std::uint32_t>::max();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) deg_min = std::min(deg_min, g.degree(v));
  }
  if (deg_min == std::numeric_limits<std::uint32_t>::max()) return 0;
  const double pi_min = static_cast<double>(deg_min) / static_cast<double>(g.volume());
  const double t = std::log(1.0 / (eps * pi_min)) / gap;
  return static_cast<std::uint32_t>(std::ceil(std::max(t, 1.0)));
}

}  // namespace xd::spectral
