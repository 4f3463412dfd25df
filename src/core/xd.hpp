#pragma once

/// \file xd.hpp
/// Umbrella header -- the library's public API surface.
///
/// xd ("expander decomposition") reproduces Chang & Saranurak, "Improved
/// Distributed Expander Decomposition and Nearly Optimal Triangle
/// Enumeration" (PODC 2019), as a round-accounted CONGEST simulation.
///
/// The three headline entry points:
///
///   * xd::expander::expander_decomposition  -- Theorem 1: the (ε, φ)
///     decomposition (Phase 1 LDD + sparse cut recursion, Phase 2 level
///     schedule), with xd::expander::verify_decomposition as the checker.
///
///   * xd::sparsecut::nearly_most_balanced_sparse_cut -- Theorem 3: the
///     Spielman–Teng Nibble stack (Nibble -> ApproximateNibble ->
///     RandomNibble -> ParallelNibble -> Partition) with the nearly-most-
///     balanced guarantee.
///
///   * xd::triangle::enumerate_congest -- Theorem 2: Õ(n^{1/3}) triangle
///     enumeration (decomposition + GKS routing + clustered DLP joins +
///     E* recursion), with enumerate_clique_dlp and
///     enumerate_local_baseline as the baselines.
///
/// Substrates (usable on their own): the CONGEST kernel
/// (xd::congest::Network, RoundLedger with fork/join round accounting, the
/// EpochScheduler component pool), graph generators (xd::gen), exact
/// metrics, spectral tools (lazy walks, sweep cuts, mixing times), the MPX
/// low-diameter decomposition (Theorem 4: xd::ldd::low_diameter_
/// decomposition), expander routers (xd::routing), and the build-once
/// serving layer (xd::serve::prepare_artifact + QueryService,
/// docs/serving.md).

#include "congest/clique.hpp"
#include "congest/engine.hpp"
#include "congest/ledger.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "expander/cross_check.hpp"
#include "expander/decomposition.hpp"
#include "expander/params.hpp"
#include "expander/simple_parallel.hpp"
#include "expander/verify.hpp"
#include "graph/access.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_view.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "graph/vertex_set.hpp"
#include "ldd/ldd.hpp"
#include "ldd/mpx.hpp"
#include "ldd/neighborhood.hpp"
#include "ldd/vdvs.hpp"
#include "primitives/aggregate.hpp"
#include "primitives/forest.hpp"
#include "primitives/sampling.hpp"
#include "routing/hierarchical_router.hpp"
#include "routing/queue_arena.hpp"
#include "routing/router.hpp"
#include "routing/simulated_router.hpp"
#include "routing/tree_router.hpp"
#include "serve/artifact.hpp"
#include "serve/service.hpp"
#include "sparsecut/distributed_nibble.hpp"
#include "sparsecut/nibble.hpp"
#include "sparsecut/nibble_params.hpp"
#include "sparsecut/parallel_nibble.hpp"
#include "sparsecut/partition.hpp"
#include "sparsecut/random_nibble.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/lazy_walk.hpp"
#include "spectral/mixing.hpp"
#include "spectral/sweep.hpp"
#include "triangle/baseline_local.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/cluster_enum.hpp"
#include "triangle/detect.hpp"
#include "triangle/edge_listing.hpp"
#include "triangle/enumerate.hpp"
#include "triangle/intersect.hpp"
#include "triangle/triple_rank.hpp"
#include "util/bitset_arena.hpp"
#include "util/rng.hpp"
#include "util/scratch.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
