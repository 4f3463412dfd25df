#pragma once

/// \file edge_listing.hpp
/// Lists the triangles of an edge subset once, the local step behind every
/// DLP proxy plane (docs/triangle.md, "Listing E_i once").
///
/// In the DLP scheme each edge {u, v} is shipped to the p proxies whose
/// sorted group triple contains {g_u, g_v}, and each proxy reports the
/// triangles of its buckets whose group triple it owns.  A triangle of the
/// shipped edge set has all three edges at the proxy ranked by its group
/// triple and is reported there and nowhere else, so the union of the
/// proxies' reports is exactly the triangle set of the shipped edges.
/// CONGEST charges the shipping, not the proxies' local work; the planes
/// therefore keep their message loops and list that union directly here,
/// instead of materializing p copies of every edge.

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"

namespace xd::triangle {

/// Appends every triangle x < y < z (ambient ids) whose three edges are in
/// `edges`, each exactly once and in ascending order.  Loops are ignored
/// and parallel copies count as one edge.  Works over a dense local CSR
/// whose ids keep ambient order, joined by csr_triangle_join; the ambient
/// -> local map and the CSR live in a per-thread arena, so steady-state
/// calls allocate nothing sized by the ambient graph.
void list_edge_triangles(const Graph& g, std::span<const EdgeId> edges,
                         std::vector<Triangle>& out);

}  // namespace xd::triangle
