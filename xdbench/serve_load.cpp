#include <algorithm>

#include "bench.hpp"

namespace xdbench {


using xd::VertexId;
using xd::serve::Query;
using xd::serve::QueryKind;
using xd::serve::QueryResult;

QueryMix::QueryMix(const xd::serve::PreparedArtifact& art, std::uint64_t seed,
                   int instance)
    : art_(art),
      rng_(xd::Rng(seed).fork(0x5E7E).fork(
          static_cast<std::uint64_t>(instance))) {
  // Relay trees: a vertex's tree is its root's.  A component that came
  // apart under the practical guards has several trees and no relay route
  // between them, so route endpoints are drawn from one tree.
  const std::size_t n = art.graph.num_vertices();
  std::vector<VertexId> by_depth(n);
  for (VertexId v = 0; v < n; ++v) by_depth[v] = v;
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](VertexId a, VertexId b) {
                     return art.relay_depth[a] < art.relay_depth[b];
                   });
  std::vector<VertexId> root(n);
  for (const VertexId v : by_depth) {
    const VertexId p = art.relay_parent[v];
    root[v] = p == v ? v : root[p];
  }
  std::vector<std::uint32_t> index_of_root(n, 0);
  std::uint32_t trees = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (root[v] == v) index_of_root[v] = trees++;
  }
  tree_of_.resize(n);
  tree_offsets_.assign(trees + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    tree_of_[v] = index_of_root[root[v]];
    ++tree_offsets_[tree_of_[v] + 1];
  }
  for (std::uint32_t t = 0; t < trees; ++t) {
    tree_offsets_[t + 1] += tree_offsets_[t];
  }
  tree_members_.resize(n);
  std::vector<std::uint32_t> cursor(tree_offsets_.begin(),
                                    tree_offsets_.end() - 1);
  for (VertexId v = 0; v < n; ++v) tree_members_[cursor[tree_of_[v]]++] = v;
}

Query QueryMix::next() {
  static constexpr QueryKind kByDecile[10] = {
      QueryKind::kRoute,         QueryKind::kRoute,
      QueryKind::kRoute,         QueryKind::kTrianglesOf,
      QueryKind::kTrianglesOf,   QueryKind::kTrianglesOf,
      QueryKind::kTriangleMembership, QueryKind::kTriangleCount,
      QueryKind::kConductance,   QueryKind::kComponentOf};
  return next_of(kByDecile[rng_.next_below(10)]);
}

Query QueryMix::next_of(QueryKind kind) {
  const std::size_t n = art_.graph.num_vertices();
  Query q;
  q.kind = kind;
  q.a = static_cast<VertexId>(rng_.next_below(n));
  switch (kind) {
    case QueryKind::kRoute: {
      const std::uint32_t t = tree_of_[q.a];
      const std::uint32_t lo = tree_offsets_[t];
      q.b = tree_members_[lo + rng_.next_below(tree_offsets_[t + 1] - lo)];
      break;
    }
    case QueryKind::kTriangleMembership: {
      // Half the probes name a listed triangle, so both answers occur.
      const auto tris = art_.triangles_of(q.a);
      if (!tris.empty() && rng_.next_bool(0.5)) {
        const auto& t = art_.triangles[tris[rng_.next_below(tris.size())]];
        q.a = t[2];
        q.b = t[0];
        q.c = t[1];
      } else {
        q.b = static_cast<VertexId>(rng_.next_below(n));
        q.c = static_cast<VertexId>(rng_.next_below(n));
      }
      break;
    }
    case QueryKind::kConductance:
      q.a = static_cast<VertexId>(rng_.next_below(art_.num_components));
      break;
    default:
      break;
  }
  return q;
}

bool answer_correct(const xd::serve::PreparedArtifact& art, const Query& q,
                    const QueryResult& r) {
  if (!r.ok || !r.exact || r.kind != q.kind) return false;
  switch (q.kind) {
    case QueryKind::kTriangleCount:
      return r.value == art.triangle_count();
    case QueryKind::kTrianglesOf: {
      const auto want = art.triangles_of(q.a);
      return r.value == want.size() &&
             std::equal(r.ids.begin(), r.ids.end(), want.begin(), want.end());
    }
    case QueryKind::kTriangleMembership:
      return r.value == (art.has_triangle(q.a, q.b, q.c) ? 1u : 0u);
    case QueryKind::kRoute: {
      if (r.ids.empty() || r.ids.front() != q.a || r.ids.back() != q.b ||
          r.value + 1 != r.ids.size()) {
        return false;
      }
      for (std::size_t i = 0; i + 1 < r.ids.size(); ++i) {
        if (!art.graph.has_edge(r.ids[i], r.ids[i + 1])) return false;
      }
      return true;
    }
    case QueryKind::kConductance: {
      const auto& info = art.components[q.a];
      return r.scalar == info.conductance && r.value == info.size;
    }
    case QueryKind::kComponentOf:
      return r.value == art.component_of(q.a);
  }
  return false;
}

void serve_closed_loop(const xd::serve::PreparedArtifact& art, QueryMix& mix,
                       const ServeConfig& cfg, Tally& tally, ServeStats& st) {
  xd::serve::ServiceParams sp;
  sp.threads = cfg.threads;
  xd::serve::QueryService svc(art, sp);

  std::vector<char> outstanding(kClients, 0);
  std::vector<Query> waiting(kClients);  // each client's outstanding query
  std::vector<Clock::time_point> submitted_at(kClients);
  bool corrupt = cfg.corrupt_one;
  // One window's latencies; sized up front so the resident set does not
  // grow with the answer count.
  std::vector<double> window(kWindowAnswers + kClients, 0.0);
  std::size_t in_window = 0;
  double window_s = 0;
  const auto close_window = [&] {
    std::vector<double> lat(
        window.begin(), window.begin() + static_cast<std::ptrdiff_t>(in_window));
    st.window_qps.push_back(static_cast<double>(in_window) / window_s);
    st.window_p50_us.push_back(quantile(lat, 0.50));
    st.window_p99_us.push_back(quantile(lat, 0.99));
    in_window = 0;
    window_s = 0;
  };

  const auto start = Clock::now();
  bool idle = false;
  while (!idle) {
    const bool open = seconds_since(start) < cfg.seconds;
    const auto t0 = Clock::now();
    if (open) {
      for (std::uint32_t c = 0; c < kClients; ++c) {
        if (outstanding[c]) continue;
        const Query q = cfg.single_kind ? mix.next_of(cfg.kind) : mix.next();
        ++st.submitted;
        const auto at = Clock::now();
        if (!svc.submit(c, q)) {
          // Admission queue full: this client waits for the next round.
          ++st.rejected;
          break;
        }
        outstanding[c] = 1;
        waiting[c] = q;
        submitted_at[c] = at;
      }
    }
    const auto f0 = Clock::now();
    auto rep = svc.flush_report();
    const auto done = Clock::now();
    const double spent = std::chrono::duration<double>(done - t0).count();
    st.timed_s += spent;
    window_s += spent;
    if (rep.results.empty()) {
      idle = !open;
      continue;
    }
    ++st.flushes;
    st.flush_us.push_back(
        std::chrono::duration<double, std::micro>(done - f0).count());
    for (const QueryResult& r : rep.results) {
      window[in_window++] = std::chrono::duration<double, std::micro>(
                                done - submitted_at[r.client])
                                .count();
    }
    // Untimed: every answer is checked before its client submits again.
    for (QueryResult& r : rep.results) {
      if (corrupt) {
        ++r.value;
        corrupt = false;
      }
      tally.check(answer_correct(art, waiting[r.client], r),
                  "served answer matches the artifact");
      outstanding[r.client] = 0;
      ++st.answers;
    }
    if (in_window >= kWindowAnswers) close_window();
  }
  // A trailing partial window counts only when it is the only one.
  if (st.window_qps.empty() && in_window > 0) close_window();
  st.rounds += svc.ledger().rounds();
  const xd::serve::ServiceHealth h = svc.health();
  st.degraded_answers += h.degraded_answers;
  st.flush_retries += h.flush_retries;
}

}  // namespace xdbench
