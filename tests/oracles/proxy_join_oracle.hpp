#pragma once

/// \file proxy_join_oracle.hpp
/// Reference oracle for the DLP proxy joins: the flat (rank, u, v) bucket
/// plane and its per-proxy joins, as the clustered and CONGESTED-CLIQUE
/// planes ran them before they listed each edge set once
/// (triangle/edge_listing.hpp).
///
/// Every edge copy shipped to a proxy is one (rank, u, v) tuple; one pass
/// groups the whole plane into buckets ordered by (rank, u, v) --
/// ascending rank reproduces the seed's std::map iteration order (see
/// triple_rank.hpp) and the in-bucket (u, v) order is the seed's
/// per-bucket sort.  Dense planes take an O(N + R) counting scatter over
/// the R = C(p+2,3) rank domain plus tiny per-bucket sorts; sparse planes
/// (small clusters) skip the O(R) counter clear and comparison-sort
/// directly -- both orders are identical.
///
/// Each bucket then joins with zero per-bucket setup: bucket edges sharing
/// their smaller endpoint x sit consecutively (a *run*), every pair (x,y),
/// (x,z) with y < z is a wedge, and the closing edges live in the run of y
/// further down the same sorted span.  Each triangle is found exactly
/// once, at its smallest vertex, and reported only at the proxy owning its
/// group triple.  join_proxy_buckets routes the closing-edge search
/// through the hybrid intersection kernels (intersect.hpp) -- merge kernel
/// for mid-size runs, an epoch-stamped bitmap of the x-run for
/// high-degree runs -- while join_proxy_buckets_probe is the per-candidate
/// binary-search loop; intersect_test holds the two to each other and
/// proxy_join_diff_test holds their union to the library's listing.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/intersect.hpp"
#include "triangle/triple_rank.hpp"

namespace xd::oracle {

using triangle::Triangle;
using triangle::TripleRanker;

/// One shipped edge copy: proxy rank plus sorted endpoints (u < v).
struct ProxyTuple {
  std::uint64_t rank;
  VertexId u, v;

  friend bool operator<(const ProxyTuple& a, const ProxyTuple& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  }
  friend bool operator==(const ProxyTuple& a, const ProxyTuple& b) {
    return a.rank == b.rank && a.u == b.u && a.v == b.v;
  }
};

/// Reusable storage for the counting scatter and the kernelized join.
struct JoinScratch {
  std::vector<std::uint32_t> counts;  ///< per-rank counters / end offsets
  std::vector<ProxyTuple> scatter;    ///< counting-sort target buffer
  // Kernelized join scratch, bucket-local (capacities persist):
  std::vector<std::uint32_t> vals;       ///< the span's larger endpoints
  std::vector<std::uint32_t> run_u;      ///< distinct smaller endpoints
  std::vector<std::uint32_t> run_begin;  ///< run extents into vals,
  std::vector<std::uint32_t> run_end;    ///<   parallel to run_u
  std::vector<std::uint32_t> matches;    ///< kernel output buffer
};

/// Orders the plane by (rank, u, v) and dedups -- the shared grouping pass
/// of both join variants.  The counting path pays an O(R) counter clear,
/// so take it only when the plane is at least a constant fraction of the
/// rank domain; sparse planes comparison-sort directly.  Both paths
/// produce the identical ordering.
inline void group_tuples(std::vector<ProxyTuple>& tuples,
                         const TripleRanker& ranker, JoinScratch& js) {
  const std::uint64_t num_ranks = ranker.count();
  if (tuples.size() * 4 >= num_ranks) {
    js.counts.assign(num_ranks + 1, 0);
    for (const ProxyTuple& t : tuples) ++js.counts[t.rank + 1];
    for (std::uint64_t r = 0; r < num_ranks; ++r) {
      js.counts[r + 1] += js.counts[r];
    }
    js.scatter.resize(tuples.size());
    for (const ProxyTuple& t : tuples) js.scatter[js.counts[t.rank]++] = t;
    tuples.swap(js.scatter);
    // counts[r] now marks the end of bucket r; sort each span by (u, v).
    std::size_t lo = 0;
    for (std::uint64_t r = 0; r < num_ranks && lo < tuples.size(); ++r) {
      const std::size_t hi = js.counts[r];
      if (hi > lo + 1) std::sort(tuples.begin() + lo, tuples.begin() + hi);
      lo = hi;
    }
  } else {
    std::sort(tuples.begin(), tuples.end());
  }
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

/// Kernelized join of one bucket span [lo, hi).  The span's larger
/// endpoints are copied to a contiguous u32 array and the runs of equal
/// smaller endpoint are indexed once; each wedge source y in the run of x
/// then closes via ONE intersection of the x-run's tail with y's run:
///
///   * run(x) holds x's bucket-neighbors > x, strictly ascending;
///   * run(y) (further down the span, since y > x) holds y's neighbors
///     > y, so every probe result z satisfies z > y automatically;
///   * z ∈ run(x) ∩ run(y) with z > y  <=>  (x,y), (x,z), (y,z) are all
///     bucket edges -- the triangle x < y < z.
///
/// High-degree runs build an epoch-stamped bitmap of run(x) once and probe
/// each run(y) against it; every probed z is > y, so the match set equals
/// the tail intersection exactly.  Emission order (x asc, y asc, z asc)
/// matches the probe join bit for bit.
inline void join_bucket_kernel(const std::vector<ProxyTuple>& tuples,
                               std::size_t lo, std::size_t hi,
                               std::uint64_t rank, const TripleRanker& ranker,
                               const std::uint32_t* groups, JoinScratch& js,
                               std::vector<Triangle>& out) {
  namespace intersect = triangle::intersect;
  const std::size_t bn = hi - lo;
  js.vals.resize(bn);
  for (std::size_t t = 0; t < bn; ++t) js.vals[t] = tuples[lo + t].v;
  js.run_u.clear();
  js.run_begin.clear();
  js.run_end.clear();
  for (std::size_t t = 0; t < bn;) {
    const VertexId u = tuples[lo + t].u;
    const std::size_t begin = t;
    while (t < bn && tuples[lo + t].u == u) ++t;
    js.run_u.push_back(u);
    js.run_begin.push_back(static_cast<std::uint32_t>(begin));
    js.run_end.push_back(static_cast<std::uint32_t>(t));
  }
  js.matches.resize(bn + intersect::kOutSlack);

  const std::uint32_t* vals = js.vals.data();
  std::uint32_t* matches = js.matches.data();
  auto& bm = intersect::BitmapIntersect::for_thread();
  const std::size_t num_runs = js.run_u.size();
  for (std::size_t r = 0; r < num_runs; ++r) {
    const VertexId x = js.run_u[r];
    const std::size_t b0 = js.run_begin[r];
    const std::size_t b1 = js.run_end[r];
    if (b1 - b0 < 2) continue;  // no wedge without two bucket-neighbors
    const bool hub = intersect::use_bitmap(b1 - b0);
    if (hub) bm.build(vals + b0, b1 - b0);
    // Runs are ascending in u, so y's run (y > x) can only lie past r.
    std::size_t next = r + 1;
    for (std::size_t a = b0; a + 1 < b1; ++a) {
      const std::uint32_t y = vals[a];
      const auto yit =
          std::lower_bound(js.run_u.begin() + next, js.run_u.end(), y);
      if (yit == js.run_u.end()) break;  // no later run can close a wedge
      next = static_cast<std::size_t>(yit - js.run_u.begin());
      if (*yit != y) continue;
      const std::size_t q0 = js.run_begin[next];
      const std::size_t q1 = js.run_end[next];
      std::size_t cnt;
      if (hub) {
        cnt = bm.probe(vals + q0, q1 - q0, matches);
      } else {
        cnt = intersect::intersect_sorted(vals + a + 1, b1 - (a + 1),
                                          vals + q0, q1 - q0, matches);
      }
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::uint32_t z = matches[t];
        // Report only at the owning proxy (no duplicates across proxies).
        if (ranker.rank(groups[x], groups[y], groups[z]) == rank) {
          out.push_back(Triangle{x, y, z});
        }
      }
    }
  }
}

/// Groups `tuples` by (rank, u, v), dedups, joins each bucket, and appends
/// every triangle x < y < z whose group triple ranks to its bucket (the
/// ownership rule that keeps reports duplicate-free across proxies).
/// `groups[v]` is the group of ambient vertex v.  Output (content and
/// order) is bit-identical to join_proxy_buckets_probe under every
/// kernel/ISA.
inline void join_proxy_buckets(std::vector<ProxyTuple>& tuples,
                               const TripleRanker& ranker,
                               const std::uint32_t* groups, JoinScratch& js,
                               std::vector<Triangle>& out) {
  if (tuples.empty()) return;
  group_tuples(tuples, ranker, js);
  const std::size_t n = tuples.size();
  std::size_t lo = 0;
  while (lo < n) {
    const std::uint64_t rank = tuples[lo].rank;
    std::size_t hi = lo;
    while (hi < n && tuples[hi].rank == rank) ++hi;
    join_bucket_kernel(tuples, lo, hi, rank, ranker, groups, js, out);
    lo = hi;
  }
}

/// The per-candidate binary-search join over each bucket span.  Identical
/// output to join_proxy_buckets.
inline void join_proxy_buckets_probe(std::vector<ProxyTuple>& tuples,
                                     const TripleRanker& ranker,
                                     const std::uint32_t* groups,
                                     JoinScratch& js,
                                     std::vector<Triangle>& out) {
  if (tuples.empty()) return;
  group_tuples(tuples, ranker, js);
  const std::size_t n = tuples.size();
  std::size_t lo = 0;
  while (lo < n) {
    const std::uint64_t rank = tuples[lo].rank;
    std::size_t hi = lo;
    while (hi < n && tuples[hi].rank == rank) ++hi;
    // Runs sharing the smaller endpoint x are consecutive; every pair of
    // run members (x, y), (x, z) with y < z is a wedge whose closing edge
    // (y, z) -- if present -- lives past the run (y > x), still in-span.
    std::size_t i = lo;
    while (i < hi) {
      const VertexId x = tuples[i].u;
      std::size_t j = i;
      while (j < hi && tuples[j].u == x) ++j;
      for (std::size_t a = i; a < j; ++a) {
        for (std::size_t b = a + 1; b < j; ++b) {
          const VertexId y = tuples[a].v;
          const VertexId z = tuples[b].v;
          if (!std::binary_search(tuples.begin() + j, tuples.begin() + hi,
                                  ProxyTuple{rank, y, z})) {
            continue;
          }
          // Report only at the owning proxy (no duplicates across
          // proxies).
          if (ranker.rank(groups[x], groups[y], groups[z]) == rank) {
            out.push_back(Triangle{x, y, z});
          }
        }
      }
      i = j;
    }
    lo = hi;
  }
}

/// The p-fold plane of an edge set: each non-loop edge, as (min, max),
/// once per proxy triple containing its group pair -- what the planes
/// ship.
inline std::vector<ProxyTuple> ship_to_proxies(
    const Graph& g, const std::vector<EdgeId>& edge_ids,
    const std::vector<std::uint32_t>& groups, std::uint32_t p) {
  const TripleRanker ranker(p);
  std::vector<ProxyTuple> tuples;
  for (const EdgeId e : edge_ids) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    for (std::uint32_t c = 0; c < p; ++c) {
      tuples.push_back(ProxyTuple{ranker.rank(groups[u], groups[v], c),
                                  std::min(u, v), std::max(u, v)});
    }
  }
  return tuples;
}

}  // namespace xd::oracle
