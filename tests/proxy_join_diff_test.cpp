// Differential test of the DLP planes' one-pass listing against the
// per-proxy bucket joins they replace (tests/oracles/proxy_join_oracle.hpp).
// Each proxy reports the triangles of its buckets whose group triple it
// owns; the union of those reports must equal, triangle for triangle and
// with no duplicates, what enumerate_cluster lists over E_i.  The grid
// covers every corpus graph plus a multigraph with parallel edges and
// self-loops, group counts p in {1, 2, 3, 5, ceil(n^{1/3})}, random and
// block group maps, and cluster splits k in {1, 2, 3}.  The demand stream
// handed to the router must also equal enumerate_cluster_reference's, the
// CONGESTED-CLIQUE plane is held to the same union, and the full driver
// lists the same triangles at every scheduler thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "congest/ledger.hpp"
#include "corpus.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "oracles/proxy_join_oracle.hpp"
#include "routing/router.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/cluster_enum.hpp"
#include "triangle/enumerate.hpp"
#include "util/rng.hpp"

namespace xd::triangle {
namespace {

/// Records the demand stream instead of routing it.
class RecordingRouter : public routing::Router {
 public:
  std::uint64_t preprocess() override { return 0; }
  std::uint64_t route(const std::vector<routing::Demand>& demands) override {
    for (const auto& d : demands) log.push_back({d.src, d.dst, d.count});
    ++queries_;
    return 0;
  }
  [[nodiscard]] std::uint64_t queries() const override { return queries_; }

  std::vector<std::tuple<VertexId, VertexId, std::uint32_t>> log;

 private:
  std::uint64_t queries_ = 0;
};

/// A multigraph whose triangles lean on parallel edges: a G(n, 0.3) base
/// with every third edge doubled (every ninth tripled) and loops on every
/// fifth vertex.
Graph multigraph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Graph base = gen::gnp(n, 0.3, rng);
  GraphBuilder b(n, /*allow_parallel=*/true);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const auto [u, v] = base.edge(e);
    b.add_edge(u, v);
    if (e % 3 == 0) b.add_edge(v, u);
    if (e % 9 == 0) b.add_edge(u, v);
  }
  for (VertexId v = 0; v < n; v += 5) b.add_loops(v, 1 + v % 2);
  return b.build();
}

bool has_parallel_edges(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u != v) pairs.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(pairs.begin(), pairs.end());
  return std::adjacent_find(pairs.begin(), pairs.end()) != pairs.end();
}

/// Group counts of the grid for an n-vertex graph, ascending, distinct.
std::vector<std::uint32_t> group_counts(std::size_t n) {
  std::vector<std::uint32_t> ps = {1, 2, 3, 5};
  ps.push_back(static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::cbrt(static_cast<double>(n))))));
  std::sort(ps.begin(), ps.end());
  ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  return ps;
}

std::vector<std::uint32_t> random_groups(std::size_t n, std::uint32_t p,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> groups(n);
  for (auto& g : groups) g = static_cast<std::uint32_t>(rng.next_below(p));
  return groups;
}

/// Contiguous id blocks, the CONGESTED-CLIQUE plane's map.
std::vector<std::uint32_t> block_groups(std::size_t n, std::uint32_t p) {
  std::vector<std::uint32_t> groups(n);
  for (VertexId v = 0; v < n; ++v) {
    groups[v] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) * p / n);
  }
  return groups;
}

/// Every proxy's report over the p-fold plane of `edge_ids`, concatenated
/// and sorted but not deduplicated: a triangle reported by two proxies
/// shows up twice.
std::vector<Triangle> proxy_union(const Graph& g,
                                  const std::vector<EdgeId>& edge_ids,
                                  const std::vector<std::uint32_t>& groups,
                                  std::uint32_t p) {
  auto tuples = oracle::ship_to_proxies(g, edge_ids, groups, p);
  oracle::JoinScratch js;
  std::vector<Triangle> out;
  oracle::join_proxy_buckets(tuples, TripleRanker(p), groups.data(), js, out);
  std::sort(out.begin(), out.end());
  return out;
}

/// One cell: split g into k clusters by id mod k and check every cluster.
void expect_clusters_match(const Graph& g,
                           const std::vector<std::uint32_t>& groups,
                           std::uint32_t p, std::uint32_t k,
                           const std::string& label) {
  const std::size_t n = g.num_vertices();
  for (std::uint32_t c = 0; c < k; ++c) {
    std::vector<VertexId> members;
    std::vector<char> in_cluster(n, 0);
    std::vector<VertexId> to_local(n, 0);
    for (VertexId v = c; v < n; v += k) {
      in_cluster[v] = 1;
      to_local[v] = static_cast<VertexId>(members.size());
      members.push_back(v);
    }
    if (members.empty()) continue;
    std::vector<EdgeId> edge_ids;  // E_i, loops and parallel copies kept
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.edge(e);
      if (in_cluster[u] || in_cluster[v]) edge_ids.push_back(e);
    }
    const std::string where = label + " p=" + std::to_string(p) +
                              " k=" + std::to_string(k) +
                              " c=" + std::to_string(c);

    auto& scratch = TriangleScratch::for_thread();
    scratch.to_local.begin_epoch(n);
    for (std::size_t i = 0; i < members.size(); ++i) {
      scratch.to_local.put(members[i], static_cast<VertexId>(i));
    }
    RecordingRouter listed_router;
    const auto listed = enumerate_cluster(g, edge_ids, groups, p,
                                          listed_router, members, scratch);
    ASSERT_EQ(listed, proxy_union(g, edge_ids, groups, p)) << where;

    RecordingRouter ref_router;
    const auto ref = enumerate_cluster_reference(
        g, edge_ids, in_cluster, groups, p, ref_router, to_local, members);
    ASSERT_EQ(listed, ref) << where;
    ASSERT_EQ(listed_router.log, ref_router.log) << where;
  }
}

void expect_graph_matches(const Graph& g, const std::string& label) {
  const std::size_t n = g.num_vertices();
  for (const std::uint32_t p : group_counts(n)) {
    const auto random = random_groups(n, p, 7 * p + n);
    const auto block = block_groups(n, p);
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      expect_clusters_match(g, random, p, k, label + " random");
      expect_clusters_match(g, block, p, k, label + " block");
    }
  }
}

TEST(ProxyJoinDiff, CorpusGraphsMatchTheProxyUnion) {
  for (const auto& entry : corpus::default_corpus()) {
    expect_graph_matches(entry.make(), entry.name);
  }
}

TEST(ProxyJoinDiff, ParallelEdgesAndLoopsMatchTheProxyUnion) {
  for (const std::uint64_t seed : {3u, 8u}) {
    const Graph g = multigraph(40, seed);
    ASSERT_GT(g.num_loops(), 0u);
    ASSERT_TRUE(has_parallel_edges(g));
    expect_graph_matches(g, "multigraph/s" + std::to_string(seed));
  }
}

// The CONGESTED-CLIQUE plane ships every edge of g under the block map
// with p = ceil(n^{1/3}); its output is the same proxy union.
TEST(ProxyJoinDiff, CliquePlaneMatchesTheProxyUnion) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& entry : corpus::default_corpus()) {
    graphs.emplace_back(entry.name, entry.make());
  }
  graphs.emplace_back("multigraph/s3", multigraph(40, 3));
  for (const auto& [name, g] : graphs) {
    const std::size_t n = g.num_vertices();
    const auto p = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(std::cbrt(static_cast<double>(n)))));
    std::vector<EdgeId> all(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
    congest::RoundLedger ledger;
    const auto res = enumerate_clique_dlp(g, ledger);
    EXPECT_EQ(res.triangles, proxy_union(g, all, block_groups(n, p), p))
        << name;
  }
}

// The listing's arena is per thread: clusters listed concurrently on the
// scheduler's workers must give the sequential run's triangles and rounds.
TEST(ProxyJoinDiff, ListingIsThreadCountInvariant) {
  const Graph g = gen::clique_chain(40, 7);  // dozens of clusters, 2 levels
  const auto run = [&g](int threads) {
    EnumParams prm;
    prm.scheduler_threads = threads;
    Rng rng(29);
    congest::RoundLedger ledger;
    return enumerate_congest(g, prm, rng, ledger);
  };
  const auto sequential = run(0);
  EXPECT_GT(sequential.clusters_processed, 1u);
  auto want = triangles_exact(g);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sequential.triangles, want);
  for (const int threads : {1, 2, 8}) {
    const auto res = run(threads);
    EXPECT_EQ(res.triangles, sequential.triangles) << "threads=" << threads;
    EXPECT_EQ(res.clusters_processed, sequential.clusters_processed)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace xd::triangle
