#include "triangle/edge_listing.hpp"

#include <algorithm>
#include <cstdint>

#include "triangle/baseline_local.hpp"
#include "util/scratch.hpp"

namespace xd::triangle {

namespace {

/// The calling thread's listing storage.  Scheduler work items are
/// thread-disjoint, so per-thread reuse is race-free; capacities persist
/// across clusters and levels.
struct ListingScratch {
  util::StampedMap<VertexId> local;    ///< ambient -> local id
  std::vector<VertexId> verts;         ///< local -> ambient id, ascending
  std::vector<std::uint32_t> offsets;  ///< local CSR
  std::vector<VertexId> adj;

  static ListingScratch& for_thread() {
    thread_local ListingScratch scratch;
    return scratch;
  }
};

}  // namespace

void list_edge_triangles(const Graph& g, std::span<const EdgeId> edges,
                         std::vector<Triangle>& out) {
  auto& s = ListingScratch::for_thread();
  auto& local = s.local;
  auto& verts = s.verts;

  // Local ids follow ambient order, so a local triangle x < y < z maps to
  // a sorted ambient triple and the listing order carries over.
  local.begin_epoch(g.num_vertices());
  verts.clear();
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    for (const VertexId x : {u, v}) {
      if (!local.contains(x)) {
        local.put(x, 0);
        verts.push_back(x);
      }
    }
  }
  const std::size_t k = verts.size();
  if (k < 3) return;
  std::sort(verts.begin(), verts.end());
  for (std::size_t i = 0; i < k; ++i) {
    local.at(verts[i]) = static_cast<VertexId>(i);
  }

  // Counting scatter into per-vertex lists; afterwards offsets[i] is the
  // end of list i (the start of list i + 1).
  auto& offsets = s.offsets;
  auto& adj = s.adj;
  offsets.assign(k + 1, 0);
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    ++offsets[local.at(u) + 1];
    ++offsets[local.at(v) + 1];
  }
  for (std::size_t i = 0; i < k; ++i) offsets[i + 1] += offsets[i];
  adj.resize(offsets[k]);
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    const VertexId lu = local.at(u);
    const VertexId lv = local.at(v);
    adj[offsets[lu]++] = lv;
    adj[offsets[lv]++] = lu;
  }
  // Sort each list and drop parallel copies, compacting left in place.
  std::uint32_t lo = 0;
  std::uint32_t w = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t hi = offsets[i];
    std::sort(adj.begin() + lo, adj.begin() + hi);
    const auto end = std::unique(adj.begin() + lo, adj.begin() + hi);
    offsets[i] = w;
    for (auto it = adj.begin() + lo; it != end; ++it) adj[w++] = *it;
    lo = hi;
  }
  offsets[k] = w;

  const std::size_t first = out.size();
  csr_triangle_join(offsets.data(), adj.data(), k, out);
  for (std::size_t t = first; t < out.size(); ++t) {
    for (VertexId& x : out[t]) x = verts[x];
  }
}

}  // namespace xd::triangle
