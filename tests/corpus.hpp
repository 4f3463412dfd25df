#pragma once

/// \file corpus.hpp
/// The seeded graph corpus shared across test suites.
///
/// One registry instead of each suite hand-rolling topologies: the shard
/// conformance grid, the fault-injection chaos grid, and the cross-backend
/// decomposition harness (backend_diff_test) all draw from here, so "the
/// expander", "the dumbbell", and friends mean the same bits everywhere.
/// Generators are pure functions of their (family, size, seed) cell --
/// calling make() twice yields bit-identical graphs, which is what lets
/// golden pins and cross-suite comparisons share fixtures.
///
/// Three surfaces:
///   * topology(name)     -- the named single graphs the message-plane
///     suites have always used (their golden pins depend on these exact
///     seeds; do not touch).
///   * default_corpus()   -- the family x size x seed grid the
///     differential harness sweeps: expanders, dumbbells, grids,
///     power-law, SBM, ring-of-cliques, and an XDG1 round-trip fixture
///     that routes one entry through the binary loader (graph/io.hpp).
///   * random_overlay(g, rng, ...) -- a seeded active set plus
///     removed-edge mask, the GraphView fixture of graph_view_test and
///     walk_diff_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/vertex_set.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::corpus {

/// The named topologies of the message-plane suites (shard_test's
/// conformance grid, fault_test's chaos grid).  Seeds are load-bearing:
/// the suites' pinned baselines were captured on these exact graphs.
inline Graph topology(const std::string& name) {
  if (name == "expander") {
    Rng rng(19);
    return gen::random_regular(96, 4, rng);
  }
  if (name == "dumbbell") return gen::barbell(20);
  if (name == "star") return gen::star(49);
  if (name == "gnp-small") {
    Rng rng(31);
    return gen::gnp(60, 0.2, rng);
  }
  if (name == "gnp-medium") {
    Rng rng(5);
    return gen::gnp(80, 0.1, rng);
  }
  XD_CHECK_MSG(false, "unknown topology " << name);
  return {};
}

/// One cell of the corpus grid.
struct CorpusEntry {
  std::string family;  ///< generator family ("expander", "grid", ...)
  std::string name;    ///< unique label, e.g. "expander/n96/s19"
  std::uint64_t seed;  ///< generator seed (0 for deterministic families)
  std::function<Graph()> make;
};

/// The differential-harness sweep.  Sizes are chosen so the full grid --
/// two backends x four scheduler settings x verification -- stays a
/// seconds-scale test; bench_expander's E10 covers the 100k point.
inline std::vector<CorpusEntry> default_corpus() {
  std::vector<CorpusEntry> corpus;
  const auto add = [&](std::string family, std::string name,
                       std::uint64_t seed, std::function<Graph()> make) {
    corpus.push_back(CorpusEntry{std::move(family), std::move(name), seed,
                                 std::move(make)});
  };
  add("expander", "expander/n96/s19", 19, [] {
    Rng rng(19);
    return gen::random_regular(96, 4, rng);
  });
  add("expander", "expander/n200/s23", 23, [] {
    Rng rng(23);
    return gen::random_regular(200, 4, rng);
  });
  add("dumbbell", "dumbbell/n120/s7", 7, [] {
    Rng rng(7);
    return gen::dumbbell_expanders(60, 60, 4, 3, rng);
  });
  add("dumbbell", "barbell/k20", 0, [] { return gen::barbell(20); });
  add("grid", "grid/12x12", 0, [] { return gen::grid(12, 12); });
  add("grid", "grid/8x20/wrap", 0, [] { return gen::grid(8, 20, true); });
  add("power-law", "powerlaw/n200/s7", 7, [] {
    Rng rng(7);
    return gen::preferential_attachment(200, 3, rng);
  });
  add("sbm", "sbm/n160b4/s11", 11, [] {
    Rng rng(11);
    return gen::planted_partition(160, 4, 0.35, 0.01, rng);
  });
  add("cliques", "ring-of-cliques/8x12", 0,
      [] { return gen::ring_of_cliques(8, 12); });
  // The XDG1 fixture: a generated expander written through the binary
  // format and read back, so the harness also sweeps a loader-produced
  // CSR (endpoint dedup + degree histogram path, docs/io.md).
  add("xdg1", "xdg1/n128/s41", 41, [] {
    Rng rng(41);
    const Graph g = gen::random_regular(128, 4, rng);
    const std::string path = ::testing::TempDir() + "xd_corpus_n128_s41.xdg";
    write_binary_edge_list_file(g, path);
    return read_binary_edge_list_file(path).graph;
  });
  return corpus;
}

/// A random active set plus a random removal overlay (non-loop edges only).
struct Overlay {
  VertexSet active;
  std::vector<char> removed;
};

inline Overlay random_overlay(const Graph& g, Rng& rng, double keep_vertex,
                              double remove_edge) {
  Overlay out;
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.next_bool(keep_vertex)) ids.push_back(v);
  }
  if (ids.empty()) ids.push_back(0);
  out.active = VertexSet(std::move(ids));
  out.removed.assign(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.is_loop(e) && rng.next_bool(remove_edge)) out.removed[e] = 1;
  }
  return out;
}

}  // namespace xd::corpus
