// Differential test of the planned power iteration against the dense
// oracle (tests/oracles/spectral_oracle.hpp): λ, the one-step flag and the
// last iterate must agree bit for bit at team widths 1, 2 and 4, on every
// corpus graph, a multigraph with loops and parallel edges, a graph with
// isolated vertices, K_2, a graph whose iterate vanishes after one step,
// and a 20000-vertex preferential-attachment graph.  A width is set the way a
// build sets it: the call runs as the lone item of an epoch at that many
// scheduler threads.  The spawn hook counts team threads, so the test
// also shows that wide runs really start threads and width-1 runs none.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "congest/scheduler.hpp"
#include "corpus.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "oracles/spectral_oracle.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/mixing.hpp"
#include "util/rng.hpp"

namespace xd {
namespace {

constexpr int kWidths[] = {1, 2, 4};

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

::testing::AssertionResult same_spectrum(const spectral::LazySpectrum& a,
                                         const spectral::LazySpectrum& b) {
  if (!same_double(a.lambda, b.lambda)) {
    return ::testing::AssertionFailure()
           << "lambda " << a.lambda << " vs " << b.lambda;
  }
  if (a.mixes_in_one_step != b.mixes_in_one_step) {
    return ::testing::AssertionFailure() << "one-step flags differ";
  }
  if (a.y.size() != b.y.size()) {
    return ::testing::AssertionFailure() << "iterate sizes differ";
  }
  for (std::size_t i = 0; i < a.y.size(); ++i) {
    if (!same_double(a.y[i], b.y[i])) {
      return ::testing::AssertionFailure()
             << "iterate at " << i << ": " << a.y[i] << " vs " << b.y[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// mixing_time_estimate's formula over a given λ₂.
std::uint32_t estimate_from(const Graph& g, double lambda2) {
  const double gap = 1.0 - lambda2;
  if (gap <= 1e-12) return std::numeric_limits<std::uint32_t>::max();
  std::uint32_t deg_min = std::numeric_limits<std::uint32_t>::max();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) deg_min = std::min(deg_min, g.degree(v));
  }
  const double pi_min =
      static_cast<double>(deg_min) / static_cast<double>(g.volume());
  const double t = std::log(1.0 / (0.25 * pi_min)) / gap;
  return static_cast<std::uint32_t>(std::ceil(std::max(t, 1.0)));
}

/// Team threads started through the scheduler's spawn path while `fn` ran.
template <typename Fn>
int spawned_during(Fn&& fn) {
  std::atomic<int> spawned{0};
  congest::detail::set_spawn_fault_hook_for_testing(
      [&](int) { spawned.fetch_add(1); });
  fn();
  congest::detail::set_spawn_fault_hook_for_testing({});
  return spawned.load();
}

/// Holds the iteration, λ₂, mixing_time_estimate and the Fiedler sweep to
/// the oracle at every width.  Returns the team threads the widest run
/// started.
int expect_matches_oracle(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const spectral::LazySpectrum want = oracle::lazy_power_iteration_dense(g);
  const double want_lambda2 = want.lambda2();
  const auto want_cut = spectral::fiedler_sweep(g, want);
  int spawned = 0;
  for (const int width : kWidths) {
    SCOPED_TRACE("width " + std::to_string(width));
    spectral::LazySpectrum got;
    double lambda2 = 0;
    std::uint32_t tau = 0;
    std::optional<spectral::SpectralCut> cut;
    spawned = spawned_during([&] {
      congest::EpochScheduler(width).run(1, [&](std::size_t) {
        got = spectral::lazy_power_iteration(g);
        lambda2 = spectral::lazy_second_eigenvalue(g);
        tau = spectral::mixing_time_estimate(g);
        cut = spectral::fiedler_sweep(g);
      });
    });
    EXPECT_TRUE(same_spectrum(got, want));
    EXPECT_TRUE(same_double(lambda2, want_lambda2));
    EXPECT_EQ(tau, estimate_from(g, want_lambda2));
    EXPECT_EQ(cut.has_value(), want_cut.has_value());
    if (cut && want_cut) {
      EXPECT_TRUE(std::ranges::equal(cut->cut.ids(), want_cut->cut.ids()));
      EXPECT_TRUE(same_double(cut->conductance, want_cut->conductance));
      EXPECT_TRUE(same_double(cut->lambda2, want_cut->lambda2));
    }
    if (width == 1) {
      EXPECT_EQ(spawned, 0) << "a width-1 run started threads";
    }
  }
  return spawned;
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

/// A preferential-attachment graph with `isolated` edgeless vertices
/// interleaved among its ids.
Graph with_isolated_vertices(std::size_t n, std::size_t isolated) {
  Rng rng(21);
  const Graph core = gen::preferential_attachment(n, 4, rng);
  const std::size_t stride = n / isolated;
  const auto id = [&](VertexId v) {
    return static_cast<VertexId>(v + v / stride + 1);
  };
  GraphBuilder b(n + n / stride + 1);
  for (EdgeId e = 0; e < core.num_edges(); ++e) {
    const auto [u, v] = core.edge(e);
    b.add_edge(id(u), id(v));
  }
  return b.build();
}

TEST(SpectralDiff, CorpusGraphsMatchTheOracle) {
  for (const auto& entry : corpus::default_corpus()) {
    expect_matches_oracle(entry.make(), entry.name);
  }
}

TEST(SpectralDiff, MultigraphWithLoopsAndParallelEdgesMatchesTheOracle) {
  const Graph small = multigraph(60, 3);
  ASSERT_GT(small.num_loops(), 0u);
  expect_matches_oracle(small, "multigraph/n60");
  const Graph big = multigraph(9000, 4);
  EXPECT_GT(expect_matches_oracle(big, "multigraph/n9000"), 0)
      << "the wide iteration never ran";
}

TEST(SpectralDiff, IsolatedVerticesMatchTheOracle) {
  const Graph g = with_isolated_vertices(9000, 90);
  ASSERT_EQ(g.degree(0), 0u);
  EXPECT_GT(expect_matches_oracle(g, "isolated/n9000"), 0)
      << "the wide iteration never ran";
}

// K_2's lazy walk has λ₂ = 0, but the deflated iterate only shrinks to
// rounding noise there and is renormalized every step.  The iterate
// vanishes exactly when all mass sits on an isolated vertex: vertex 0 has
// no slots and vertex 1 only a loop, so deflation leaves (-1, 0) and one
// step maps it to 0.
TEST(SpectralDiff, VanishingIterateStopsEarly) {
  const Graph k2 = gen::path(2);
  expect_matches_oracle(k2, "K2");
  EXPECT_LT(spectral::lazy_second_eigenvalue(k2), 1e-12);

  GraphBuilder b(2);
  b.add_loops(1, 1);
  const Graph lone_loop = b.build();
  const spectral::LazySpectrum want =
      oracle::lazy_power_iteration_dense(lone_loop);
  ASSERT_TRUE(want.mixes_in_one_step);
  expect_matches_oracle(lone_loop, "isolated+loop");
  EXPECT_EQ(spectral::lazy_second_eigenvalue(lone_loop), 0.0);
}

TEST(SpectralDiff, LargePreferentialAttachmentMatchesTheOracle) {
  Rng rng(5);
  const Graph g = gen::preferential_attachment(20000, 10, rng);
  EXPECT_GT(expect_matches_oracle(g, "powerlaw/n20000"), 0)
      << "the wide iteration never ran";
}

// An epoch with as many items as threads keeps every item at width 1.
TEST(SpectralDiff, FullEpochsRunAtWidthOne) {
  Rng rng(6);
  const Graph g = gen::preferential_attachment(20000, 4, rng);
  const double want = oracle::lazy_power_iteration_dense(g).lambda2();
  std::vector<double> got(2);
  const int spawned = spawned_during([&] {
    congest::EpochScheduler(2).run(2, [&](std::size_t i) {
      EXPECT_EQ(congest::EpochScheduler::item_width(), 1);
      got[i] = spectral::lazy_second_eigenvalue(g);
    });
  });
  EXPECT_EQ(spawned, 2) << "only the epoch's own two workers may start";
  for (const double lambda2 : got) EXPECT_TRUE(same_double(lambda2, want));
}

}  // namespace
}  // namespace xd
