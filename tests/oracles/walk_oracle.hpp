#pragma once

/// \file walk_oracle.hpp
/// Reference oracle for the truncated lazy walk and ApproximateNibble.
///
/// This is the sort-based formulation the library shipped before the flat
/// walk: one (receiver, sender, share) triple per directed support edge,
/// comparison-sorted by (receiver, sender), then merged with the sorted
/// support; the one-thread sweep over a support (the library sweeps large
/// supports of a wide epoch item on a team); and a Nibble loop that tracks
/// membership in hash sets.  It is deliberately the obvious version --
/// walk_diff_test holds spectral::truncated_step and
/// sparsecut::approximate_nibble to it bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "graph/access.hpp"
#include "sparsecut/nibble.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/check.hpp"

namespace xd::oracle {

using spectral::SparseDist;

/// [M p]_ε by sorting every contribution by (receiver, sender).
template <GraphAccess G>
SparseDist truncated_step_sorted(const G& g, const SparseDist& p,
                                 double epsilon) {
  struct Contribution {
    VertexId to, from;
    double share;
  };
  std::vector<Contribution> inflow;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const VertexId v = p.support[i];
    XD_CHECK(g.degree(v) > 0);
    const double share = p.mass[i] / (2.0 * g.degree(v));
    for (VertexId u : g.neighbors(v)) {
      if (u == v) continue;
      inflow.push_back(Contribution{u, v, share});
    }
  }
  std::sort(inflow.begin(), inflow.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.to != b.to ? a.to < b.to : a.from < b.from;
            });

  SparseDist out;
  std::size_t si = 0;
  std::size_t ci = 0;
  while (si < p.size() || ci < inflow.size()) {
    const VertexId u =
        si < p.size() && (ci == inflow.size() || p.support[si] <= inflow[ci].to)
            ? p.support[si]
            : inflow[ci].to;
    const double deg_u = g.degree(u);
    XD_CHECK(deg_u > 0);
    double m = 0.0;
    while (ci < inflow.size() && inflow[ci].to == u) {
      m += inflow[ci].share;
      ++ci;
    }
    if (si < p.size() && p.support[si] == u) {
      m += p.mass[si] / 2.0 +
           static_cast<double>(g.loops_at(u)) * p.mass[si] / (2.0 * deg_u);
      ++si;
    }
    if (m >= 2.0 * epsilon * deg_u) {
      out.support.push_back(u);
      out.mass.push_back(m);
    }
  }
  return out;
}

/// truncated_walk over truncated_step_sorted.
template <GraphAccess G>
std::vector<SparseDist> truncated_walk_sorted(const G& g, VertexId v,
                                              int steps, double epsilon) {
  std::vector<SparseDist> evolution{SparseDist::point(v)};
  for (int t = 1; t <= steps; ++t) {
    evolution.push_back(truncated_step_sorted(g, evolution.back(), epsilon));
    if (evolution.back().size() == 0) break;
  }
  return evolution;
}

/// The sweep of one distribution's support, as one thread scans it: the
/// support ordered by ρ̃ = p/deg descending with ties by id ascending, and
/// per prefix its volume and cut.  Each vertex adds its non-loop slots to
/// the cut and takes back twice those that land inside the prefix so far.
struct SupportSweep {
  std::vector<VertexId> order;
  std::vector<double> rho;  ///< per position
  std::vector<std::uint64_t> vol;
  std::vector<std::uint64_t> cut;
};

template <GraphAccess G>
SupportSweep support_sweep(const G& g, const SparseDist& dist) {
  struct Record {
    double rho;
    VertexId id;
  };
  std::vector<Record> records;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    records.push_back(
        Record{dist.mass[i] / g.degree(dist.support[i]), dist.support[i]});
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.rho != b.rho) return a.rho > b.rho;
              return a.id < b.id;
            });
  SupportSweep s;
  std::unordered_set<VertexId> in_prefix;
  std::uint64_t vol = 0;
  std::int64_t cut = 0;
  for (const Record& r : records) {
    s.order.push_back(r.id);
    s.rho.push_back(r.rho);
    vol += g.degree(r.id);
    std::int64_t nonloop = 0;
    std::int64_t inside = 0;
    for (VertexId u : g.neighbors(r.id)) {
      if (u == r.id) continue;
      ++nonloop;
      if (in_prefix.count(u)) ++inside;
    }
    cut += nonloop - 2 * inside;
    XD_CHECK(cut >= 0);
    in_prefix.insert(r.id);
    s.vol.push_back(vol);
    s.cut.push_back(static_cast<std::uint64_t>(cut));
  }
  return s;
}

/// ApproximateNibble (paper, Appendix A.2) over the sorted walk and the
/// one-thread sweep: hash-set membership, fresh buffers every step.
template <GraphAccess G>
sparsecut::NibbleResult approximate_nibble_reference(
    const G& g, VertexId v, const sparsecut::NibbleParams& prm, int b) {
  const double eps = prm.eps_b(b);
  const std::uint64_t total_volume = g.volume();
  sparsecut::NibbleResult result;
  std::unordered_set<VertexId> touched{v};
  SparseDist dist = SparseDist::point(v);
  int stall_run = 0;

  for (int t = 1; t <= prm.t0; ++t) {
    for (VertexId u : dist.support) result.work_volume += g.degree(u);
    const SparseDist prev = dist;
    dist = truncated_step_sorted(g, dist, eps);
    result.steps_run = t;
    if (dist.size() == 0) break;
    touched.insert(dist.support.begin(), dist.support.end());

    if (prm.stall_tolerance > 0.0) {
      // Relative L1 movement, merged in ascending vertex order.
      double moved = 0.0;
      double total = 0.0;
      std::size_t a = 0;
      std::size_t c = 0;
      while (a < prev.size() || c < dist.size()) {
        if (c == dist.size() ||
            (a < prev.size() && prev.support[a] < dist.support[c])) {
          moved += prev.mass[a++];
        } else if (a == prev.size() || dist.support[c] < prev.support[a]) {
          moved += dist.mass[c];
          total += dist.mass[c++];
        } else {
          moved += std::abs(dist.mass[c] - prev.mass[a++]);
          total += dist.mass[c++];
        }
      }
      stall_run = (total > 0 && moved / total < prm.stall_tolerance)
                      ? stall_run + 1
                      : 0;
    }

    const SupportSweep sweep = support_sweep(g, dist);
    const std::size_t k = sweep.order.size();
    const std::vector<std::uint64_t>& vol = sweep.vol;
    const std::vector<std::uint64_t>& cut = sweep.cut;
    const auto conductance = [&](std::size_t j) {
      const std::uint64_t denom =
          std::min(vol[j - 1], total_volume - vol[j - 1]);
      return denom == 0 ? std::numeric_limits<double>::infinity()
                        : static_cast<double>(cut[j - 1]) /
                              static_cast<double>(denom);
    };

    // The geometric candidates j_1 = 1, j_i = max(j_{i-1} + 1, largest j
    // with Vol(1..j) <= (1 + φ) Vol(1..j_{i-1})), each tested exactly at a
    // boundary and by the starred conditions in the interior.
    std::size_t jprev = 0;
    while (jprev != k) {
      std::size_t jx = 1;
      if (jprev > 0) {
        const double limit =
            (1.0 + prm.phi) * static_cast<double>(vol[jprev - 1]);
        std::size_t by_volume = 0;
        while (by_volume < k && static_cast<double>(vol[by_volume]) <= limit) {
          ++by_volume;
        }
        jx = std::max(jprev + 1, by_volume);
      }
      ++result.sweep_candidates;
      const bool boundary = jprev == 0 || jx == jprev + 1;
      const double vx = static_cast<double>(vol[jx - 1]);
      const bool c1 =
          conductance(jx) <= (boundary ? 1.0 : prm.star_relax) * prm.phi;
      const bool c2 = sweep.rho[(boundary ? jx : jprev) - 1] >= prm.gamma / vx;
      const bool c3 =
          vx <= (boundary ? 5.0 / 6.0 : 11.0 / 12.0) *
                    static_cast<double>(total_volume) &&
          vx >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
      if (c1 && c2 && c3) {
        result.cut = VertexSet(std::vector<VertexId>(
            sweep.order.begin(),
            sweep.order.begin() + static_cast<std::ptrdiff_t>(jx)));
        result.t_used = t;
        result.j_used = jx;
        result.cut_conductance = conductance(jx);
        result.cut_volume = vol[jx - 1];
        break;
      }
      jprev = jx;
    }
    if (result.found()) break;
    if (prm.stall_tolerance > 0.0 && stall_run >= prm.stall_patience) break;
  }

  result.touched.assign(touched.begin(), touched.end());
  std::sort(result.touched.begin(), result.touched.end());
  return result;
}

}  // namespace xd::oracle
