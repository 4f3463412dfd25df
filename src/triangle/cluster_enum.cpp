#include "triangle/cluster_enum.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "triangle/edge_listing.hpp"
#include "triangle/triple_rank.hpp"
#include "util/check.hpp"

namespace xd::triangle {

TriangleScratch& TriangleScratch::for_thread() {
  thread_local TriangleScratch scratch;
  return scratch;
}

std::vector<Triangle> enumerate_cluster(
    const Graph& ambient, const std::vector<EdgeId>& edge_ids,
    const std::vector<std::uint32_t>& groups, std::uint32_t p,
    routing::Router& router, const std::vector<VertexId>& cluster_vertices,
    TriangleScratch& scratch) {
  XD_CHECK(!cluster_vertices.empty());
  XD_CHECK(p >= 1);
  const TripleRanker ranker(p);
  const auto& to_local = scratch.to_local;

  // Build demands (knower -> host, one message per shipped edge copy).
  // Proxy hosts are round-robin over the cluster's vertices in triple-rank
  // order, so host lookup is index arithmetic.
  auto& demands = scratch.demands;
  demands.clear();
  for (const EdgeId e : edge_ids) {
    const auto [u, v] = ambient.edge(e);
    if (u == v) continue;
    // The in-cluster endpoint knows the edge (min id if both are inside).
    VertexId knower;
    if (to_local.contains(u) && to_local.contains(v)) {
      knower = std::min(u, v);
    } else if (to_local.contains(u)) {
      knower = u;
    } else {
      XD_CHECK_MSG(to_local.contains(v), "edge " << e << " has no cluster endpoint");
      knower = v;
    }
    const std::uint32_t gu = groups[u];
    const std::uint32_t gv = groups[v];
    // The p ranks over {gu, gv, c} are pairwise distinct and already
    // ascending in c (raising one element of a multiset raises its sorted
    // vector pointwise), and rank order is seed-key order, so this demand
    // stream is bit-identical to the seed's sorted-target loop.
    for (std::uint32_t c = 0; c < p; ++c) {
      const std::uint64_t r = ranker.rank(gu, gv, c);
      const VertexId host = cluster_vertices[r % cluster_vertices.size()];
      if (host != knower) {
        demands.push_back(
            routing::Demand{to_local.at(knower), to_local.at(host), 1});
      }
    }
  }
  if (!demands.empty()) router.route(demands);

  // The proxies' joins: their reports, each triangle at the one proxy
  // owning its group triple, union to exactly E_i's triangle set, which
  // one listing produces without materializing the p-fold bucket plane
  // (edge_listing.hpp).
  std::vector<Triangle> out;
  list_edge_triangles(ambient, edge_ids, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Seed-era hash key of a sorted triple (reference plane only).
std::uint64_t triple_key(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t p) {
  std::array<std::uint32_t, 3> t{a, b, c};
  std::sort(t.begin(), t.end());
  return (static_cast<std::uint64_t>(t[0]) * p + t[1]) * p + t[2];
}

}  // namespace

std::vector<Triangle> enumerate_cluster_reference(
    const Graph& ambient, const std::vector<EdgeId>& edge_ids,
    const std::vector<char>& in_cluster, const std::vector<std::uint32_t>& groups,
    std::uint32_t p, routing::Router& router,
    const std::vector<VertexId>& to_local,
    const std::vector<VertexId>& cluster_vertices) {
  XD_CHECK(!cluster_vertices.empty());
  XD_CHECK(p >= 1);

  // Proxy hosts: sorted triples round-robin over cluster vertices, weighted
  // implicitly by iteration order (degree-weighting refines constants only).
  std::unordered_map<std::uint64_t, VertexId> host_of;  // ambient host id
  {
    std::uint64_t next = 0;
    for (std::uint32_t a = 0; a < p; ++a) {
      for (std::uint32_t b = a; b < p; ++b) {
        for (std::uint32_t c = b; c < p; ++c) {
          host_of[triple_key(a, b, c, p)] =
              cluster_vertices[next++ % cluster_vertices.size()];
        }
      }
    }
  }

  // Build demands (knower -> host, one message per shipped edge copy) and
  // the proxy buckets (data plane).
  std::vector<routing::Demand> demands;
  std::map<std::uint64_t, std::vector<std::pair<VertexId, VertexId>>> buckets;
  std::vector<std::uint64_t> targets;
  targets.reserve(p);
  for (const EdgeId e : edge_ids) {
    const auto [u, v] = ambient.edge(e);
    if (u == v) continue;
    // The in-cluster endpoint knows the edge (min id if both are inside).
    VertexId knower;
    if (in_cluster[u] && in_cluster[v]) {
      knower = std::min(u, v);
    } else if (in_cluster[u]) {
      knower = u;
    } else {
      XD_CHECK_MSG(in_cluster[v], "edge " << e << " has no cluster endpoint");
      knower = v;
    }
    const std::uint32_t gu = groups[u];
    const std::uint32_t gv = groups[v];
    // The p sorted triples over {gu, gv} are pairwise distinct; a flat
    // sort reproduces the old std::set iteration order without the
    // per-edge node allocations.
    targets.clear();
    for (std::uint32_t c = 0; c < p; ++c) {
      targets.push_back(triple_key(gu, gv, c, p));
    }
    std::sort(targets.begin(), targets.end());
    for (const std::uint64_t key : targets) {
      const VertexId host = host_of[key];
      buckets[key].emplace_back(std::min(u, v), std::max(u, v));
      if (host != knower) {
        demands.push_back(routing::Demand{to_local[knower], to_local[host], 1});
      }
    }
  }
  if (!demands.empty()) router.route(demands);

  // Proxy joins.
  std::vector<Triangle> out;
  std::unordered_map<VertexId, std::vector<VertexId>> adj;
  std::unordered_set<std::uint64_t> present;
  for (auto& [key, edges] : buckets) {
    adj.clear();
    present.clear();
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const auto& [x, y] : edges) {
      adj[x].push_back(y);
      adj[y].push_back(x);
      present.insert((static_cast<std::uint64_t>(x) << 32) | y);
    }
    for (const auto& [x, y] : edges) {
      for (const VertexId z : adj[y]) {
        if (z <= y) continue;
        if (x >= y) continue;  // enumerate each sorted pair once
        if (present.count((static_cast<std::uint64_t>(x) << 32) | z)) {
          // Report only at the owning proxy (no duplicates inside a
          // cluster).
          if (triple_key(groups[x], groups[y], groups[z], p) == key) {
            out.push_back(Triangle{x, y, z});
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace xd::triangle
