#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "util/check.hpp"

namespace xd {

std::uint32_t Graph::loops_at(VertexId v) const {
  std::uint32_t loops = 0;
  for (VertexId u : neighbors(v)) {
    if (u == v) ++loops;
  }
  return loops;
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  XD_CHECK(u != v);
  // Search from the lower-degree endpoint's sorted-neighbor index; slot_of
  // is the one binary-search helper both lookups share.
  const VertexId probe = degree(u) <= degree(v) ? u : v;
  return slot_of(probe, probe == u ? v : u) != kNoSlot;
}

std::uint32_t Graph::slot_of(VertexId u, VertexId v, std::uint64_t* probes) const {
  XD_CHECK_MSG(u != v, "slot_of is for non-loop neighbors");
  // Binary search the neighbor-sorted slot permutation of u; on parallel
  // edges the (neighbor, slot) sort order guarantees the first hit is the
  // smallest slot.
  std::uint32_t lo = offsets_[u];
  std::uint32_t hi = offsets_[u + 1];
  while (lo < hi) {
    if (probes != nullptr) ++*probes;
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (sorted_nbrs_[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == offsets_[u + 1] || sorted_nbrs_[lo] != v) return kNoSlot;
  return sorted_slots_[lo];
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

GraphBuilder::GraphBuilder(std::size_t n, bool allow_parallel)
    : n_(n), allow_parallel_(allow_parallel) {}

GraphBuilder& GraphBuilder::add_edge(VertexId u, VertexId v) {
  XD_CHECK_MSG(u < n_ && v < n_, "edge (" << u << "," << v << ") out of range n=" << n_);
  us_.push_back(u);
  vs_.push_back(v);
  return *this;
}

GraphBuilder& GraphBuilder::add_loops(VertexId v, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) add_edge(v, v);
  return *this;
}

Graph Graph_build_impl(std::size_t n, bool allow_parallel,
                       const std::vector<VertexId>& us,
                       const std::vector<VertexId>& vs);

namespace {
std::atomic<std::uint64_t> g_total_builds{0};
}  // namespace

std::uint64_t GraphBuilder::total_builds() {
  return g_total_builds.load(std::memory_order_relaxed);
}

Graph GraphBuilder::build() const {
  g_total_builds.fetch_add(1, std::memory_order_relaxed);
  Graph g;
  const std::size_t m = us_.size();
  g.offsets_.assign(n_ + 1, 0);
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);

  // Degree count: loop contributes 1 slot, non-loop 1 slot per endpoint.
  for (std::size_t e = 0; e < m; ++e) {
    ++g.offsets_[us_[e] + 1];
    if (us_[e] != vs_[e]) ++g.offsets_[vs_[e] + 1];
  }
  for (std::size_t v = 0; v < n_; ++v) g.offsets_[v + 1] += g.offsets_[v];

  const std::size_t slots = g.offsets_[n_];
  g.neighbors_.resize(slots);
  g.edge_ids_.resize(slots);

  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const VertexId u = us_[e];
    const VertexId v = vs_[e];
    g.edge_u_[e] = u;
    g.edge_v_[e] = v;
    g.neighbors_[cursor[u]] = v;
    g.edge_ids_[cursor[u]] = static_cast<EdgeId>(e);
    ++cursor[u];
    if (u != v) {
      g.neighbors_[cursor[v]] = u;
      g.edge_ids_[cursor[v]] = static_cast<EdgeId>(e);
      ++cursor[v];
    }
    if (u == v) ++g.num_loops_;
  }
  g.num_edges_ = m;

  // Neighbor->slot index: per vertex, slots sorted by (neighbor id, slot).
  g.sorted_nbrs_.resize(slots);
  g.sorted_slots_.resize(slots);
  for (std::size_t v = 0; v < n_; ++v) {
    const std::uint32_t base = g.offsets_[v];
    const std::uint32_t deg = g.offsets_[v + 1] - base;
    for (std::uint32_t s = 0; s < deg; ++s) g.sorted_slots_[base + s] = s;
    std::sort(g.sorted_slots_.begin() + base,
              g.sorted_slots_.begin() + base + deg,
              [&](std::uint32_t a, std::uint32_t b) {
                const VertexId na = g.neighbors_[base + a];
                const VertexId nb = g.neighbors_[base + b];
                return na != nb ? na < nb : a < b;
              });
    for (std::uint32_t s = 0; s < deg; ++s) {
      g.sorted_nbrs_[base + s] = g.neighbors_[base + g.sorted_slots_[base + s]];
    }
  }

  if (!allow_parallel_) {
    // Detect duplicate non-loop edges: sort each adjacency copy.
    std::vector<std::pair<VertexId, VertexId>> canon;
    canon.reserve(m);
    for (std::size_t e = 0; e < m; ++e) {
      if (us_[e] == vs_[e]) continue;
      canon.emplace_back(std::min(us_[e], vs_[e]), std::max(us_[e], vs_[e]));
    }
    std::sort(canon.begin(), canon.end());
    const auto dup = std::adjacent_find(canon.begin(), canon.end());
    XD_CHECK_MSG(dup == canon.end(),
                 "parallel edge {" << (dup == canon.end() ? 0 : dup->first)
                                   << "," << (dup == canon.end() ? 0 : dup->second)
                                   << "} (pass allow_parallel to permit)");
  }
  return g;
}

}  // namespace xd
