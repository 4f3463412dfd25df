// Differential test of the flat truncated walk against the sort-based
// oracle (tests/oracles/walk_oracle.hpp): supports and masses must agree
// bit for bit on every corpus graph, on a multigraph with self-loops, on
// GraphViews with removed-edge masks, across graphs of different sizes on
// one thread (a stale accumulator stamp would surface as wrong output),
// and inside the EpochScheduler at 1, 2 and 8 threads.  ApproximateNibble
// is held to the oracle the same way, including a lone epoch item whose
// large supports are swept by a team of threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "congest/scheduler.hpp"
#include "corpus.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "oracles/walk_oracle.hpp"
#include "sparsecut/nibble.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/rng.hpp"

namespace xd {
namespace {

using spectral::SparseDist;

constexpr double kEpsilons[] = {1e-3, 1e-5, 1e-8};
constexpr int kSteps = 25;

/// Bitwise equality of two distributions; the message names the first
/// difference.
::testing::AssertionResult same_bits(const SparseDist& a,
                                     const SparseDist& b) {
  if (a.support != b.support) {
    return ::testing::AssertionFailure()
           << "supports differ (" << a.size() << " vs " << b.size() << ")";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.mass[i]) !=
        std::bit_cast<std::uint64_t>(b.mass[i])) {
      return ::testing::AssertionFailure()
             << "mass at vertex " << a.support[i] << ": " << a.mass[i]
             << " vs " << b.mass[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_walk(const std::vector<SparseDist>& a,
                                     const std::vector<SparseDist>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "walk lengths differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    auto r = same_bits(a[t], b[t]);
    if (!r) return r << " at step " << t;
  }
  return ::testing::AssertionSuccess();
}

/// Start vertices with positive degree: the lowest active id, a middle
/// one, and the highest-degree one.
template <GraphAccess G>
std::vector<VertexId> starts(const G& g) {
  std::vector<VertexId> live;
  for (const VertexId v : g.vertices()) {
    if (g.degree(v) > 0) live.push_back(v);
  }
  if (live.empty()) return live;
  VertexId hub = live.front();
  for (const VertexId v : live) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  return {live.front(), live[live.size() / 2], hub};
}

/// Holds truncated_walk, and truncated_step on every oracle distribution,
/// to the oracle.
template <GraphAccess G>
void expect_walks_match(const G& g, const std::string& label) {
  for (const VertexId v : starts(g)) {
    for (const double eps : kEpsilons) {
      SCOPED_TRACE(label + " start " + std::to_string(v) + " eps " +
                   std::to_string(eps));
      const auto want = oracle::truncated_walk_sorted(g, v, kSteps, eps);
      EXPECT_TRUE(same_walk(spectral::truncated_walk(g, v, kSteps, eps), want));
      for (std::size_t t = 1; t < want.size(); ++t) {
        EXPECT_TRUE(same_bits(spectral::truncated_step(g, want[t - 1], eps),
                              want[t]))
            << "step " << t;
      }
    }
  }
}

/// A multigraph: parallel non-loop edges plus repeated self-loops.
Graph multigraph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n, /*allow_parallel=*/true);
  for (VertexId v = 0; v < n; ++v) {
    b.add_edge(v, static_cast<VertexId>((v + 1) % n));
    for (int k = 0; k < 3; ++k) {
      b.add_edge(v, static_cast<VertexId>(rng.next_below(n)));
    }
    if (v % 3 == 0) b.add_edge(v, static_cast<VertexId>((v + 1) % n));
    if (v % 4 == 0) b.add_loops(v, 1 + v % 3);
  }
  return b.build();
}

TEST(WalkDiff, CorpusGraphsMatchTheSortOracle) {
  for (const auto& entry : corpus::default_corpus()) {
    expect_walks_match(entry.make(), entry.name);
  }
}

TEST(WalkDiff, MultigraphWithSelfLoopsMatchesTheSortOracle) {
  for (const std::uint64_t seed : {3u, 4u}) {
    const Graph g = multigraph(60, seed);
    ASSERT_GT(g.num_loops(), 0u);
    expect_walks_match(g, "multigraph/s" + std::to_string(seed));
  }
}

TEST(WalkDiff, MaskedViewsMatchTheSortOracle) {
  std::uint64_t seed = 100;
  for (const auto& entry : corpus::default_corpus()) {
    const Graph g = entry.make();
    Rng rng(++seed);
    const corpus::Overlay ov = corpus::random_overlay(g, rng, 0.8, 0.2);
    const GraphView view(g, &ov.removed, ov.active);
    expect_walks_match(view, entry.name + "/view");
    // The same view materialized walks bit-identically up to renumbering.
    expect_walks_match(view.materialize().graph, entry.name + "/live");
  }
}

// One thread, graphs of different num_vertices() interleaved step by step:
// the accumulator slab keeps its high-water size, so a stamp left by an
// earlier (larger or smaller) epoch must never read as current.
TEST(WalkDiff, AlternatingGraphSizesOnOneThread) {
  Rng rng(9);
  const Graph big = gen::preferential_attachment(400, 4, rng);
  const Graph small = gen::cycle(12);
  const Graph mid = multigraph(90, 5);
  const Graph* graphs[] = {&small, &big, &mid, &big, &small};
  std::vector<SparseDist> cur(5);
  std::vector<SparseDist> want(5);
  for (std::size_t i = 0; i < 5; ++i) {
    cur[i] = want[i] = SparseDist::point(0);
  }
  for (int t = 1; t <= kSteps; ++t) {
    for (std::size_t i = 0; i < 5; ++i) {
      if (want[i].size() == 0) continue;
      want[i] = oracle::truncated_step_sorted(*graphs[i], want[i], 1e-7);
      cur[i] = spectral::truncated_step(*graphs[i], cur[i], 1e-7);
      ASSERT_TRUE(same_bits(cur[i], want[i])) << "graph " << i << " step " << t;
    }
  }
}

TEST(WalkDiff, SchedulerThreadsMatchTheSortOracle) {
  std::vector<Graph> graphs;
  for (const auto& entry : corpus::default_corpus()) {
    graphs.push_back(entry.make());
  }
  graphs.push_back(multigraph(60, 3));
  std::vector<std::vector<SparseDist>> want(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    want[i] = oracle::truncated_walk_sorted(graphs[i], 0, kSteps, 1e-6);
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<std::vector<SparseDist>> got(graphs.size());
    congest::EpochScheduler(threads).run(graphs.size(), [&](std::size_t i) {
      got[i] = spectral::truncated_walk(graphs[i], 0, kSteps, 1e-6);
    });
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_TRUE(same_walk(got[i], want[i])) << "graph " << i;
    }
  }
}

::testing::AssertionResult same_nibble(const sparsecut::NibbleResult& a,
                                       const sparsecut::NibbleResult& b) {
  if (a.touched != b.touched) {
    return ::testing::AssertionFailure() << "touched sets differ";
  }
  if (!std::ranges::equal(a.cut.ids(), b.cut.ids())) {
    return ::testing::AssertionFailure() << "cuts differ";
  }
  if (a.t_used != b.t_used || a.j_used != b.j_used) {
    return ::testing::AssertionFailure()
           << "(t, j) " << a.t_used << "," << a.j_used << " vs " << b.t_used
           << "," << b.j_used;
  }
  if (a.steps_run != b.steps_run || a.sweep_candidates != b.sweep_candidates ||
      a.work_volume != b.work_volume || a.cut_volume != b.cut_volume ||
      std::bit_cast<std::uint64_t>(a.cut_conductance) !=
          std::bit_cast<std::uint64_t>(b.cut_conductance)) {
    return ::testing::AssertionFailure() << "cost observables differ";
  }
  return ::testing::AssertionSuccess();
}

/// Every (start, odd scale) cell of one graph, with and without the
/// practical stall cutoff.
template <GraphAccess G>
std::size_t expect_nibbles_match(const G& g, const std::string& label) {
  std::size_t found = 0;
  for (const double stall : {0.0, 1e-3}) {
    auto prm = sparsecut::NibbleParams::practical(0.1, g.num_edges(),
                                                  g.volume());
    prm.stall_tolerance = stall;
    // Without the stall cutoff a walk runs all t0 (~600) steps; a shorter
    // horizon keeps the oracle's sweeps cheap and still spans many steps.
    if (stall == 0.0) prm.t0 = 120;
    for (const VertexId v : starts(g)) {
      for (int b = 1; b <= prm.ell; b += 2) {
        SCOPED_TRACE(label + " start " + std::to_string(v) + " b " +
                     std::to_string(b) + " stall " + std::to_string(stall));
        const auto got = sparsecut::approximate_nibble(g, v, prm, b);
        EXPECT_TRUE(same_nibble(
            got, oracle::approximate_nibble_reference(g, v, prm, b)));
        found += got.found() ? 1 : 0;
      }
    }
  }
  return found;
}

TEST(WalkDiff, ApproximateNibbleMatchesTheOracle) {
  std::size_t found = 0;
  std::uint64_t seed = 200;
  for (const auto& entry : corpus::default_corpus()) {
    const Graph g = entry.make();
    found += expect_nibbles_match(g, entry.name);
    Rng rng(++seed);
    const corpus::Overlay ov = corpus::random_overlay(g, rng, 0.8, 0.2);
    found += expect_nibbles_match(GraphView(g, &ov.removed, ov.active),
                                  entry.name + "/view");
  }
  found += expect_nibbles_match(multigraph(60, 3), "multigraph/s3");
  EXPECT_GT(found, 0u) << "no run found a cut: the comparison is vacuous";
}

TEST(WalkDiff, ApproximateNibbleUnderSchedulerThreads) {
  Rng rng(13);
  const Graph g = gen::dumbbell_expanders(60, 60, 4, 3, rng);
  const auto prm =
      sparsecut::NibbleParams::practical(0.1, g.num_edges(), g.volume());
  std::vector<sparsecut::NibbleResult> want;
  for (VertexId v = 0; v < 16; ++v) {
    want.push_back(oracle::approximate_nibble_reference(g, v * 7, prm, 4));
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<sparsecut::NibbleResult> got(want.size());
    congest::EpochScheduler(threads).run(want.size(), [&](std::size_t i) {
      got[i] = sparsecut::approximate_nibble(
          g, static_cast<VertexId>(i * 7), prm, 4);
    });
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_nibble(got[i], want[i])) << "start " << i * 7;
    }
  }

  // A lone item is as wide as the pool, so supports of kWideSweepFloor
  // vertices or more are swept by a team.  The spawn hook counts the team
  // threads: none at one scheduler thread, some at two to four (three
  // members merge an odd number of sorted chunks).
  Rng pl_rng(17);
  const Graph pl = gen::preferential_attachment(8000, 6, pl_rng);
  const auto pl_prm =
      sparsecut::NibbleParams::practical(0.1, pl.num_edges(), pl.volume());
  const int scale = pl_prm.ell;
  const auto pl_want =
      oracle::approximate_nibble_reference(pl, 0, pl_prm, scale);
  ASSERT_GE(pl_want.touched.size(), sparsecut::kWideSweepFloor);
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("lone item, threads " + std::to_string(threads));
    sparsecut::NibbleResult got;
    std::atomic<int> spawned{0};
    congest::detail::set_spawn_fault_hook_for_testing(
        [&](int) { spawned.fetch_add(1); });
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      got = sparsecut::approximate_nibble(pl, 0, pl_prm, scale);
    });
    congest::detail::set_spawn_fault_hook_for_testing({});
    EXPECT_TRUE(same_nibble(got, pl_want));
    if (threads == 1) {
      EXPECT_EQ(spawned.load(), 0);
    } else {
      EXPECT_GT(spawned.load(), 0) << "no support reached the wide sweep";
    }
  }
}

}  // namespace
}  // namespace xd
