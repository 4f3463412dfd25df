// Experiment E8 -- the build-once serving lifecycle (docs/serving.md).
//
// Tables:
//   E8a  prepare-once vs rebuild-per-query A/B on a multi-cluster graph at
//        --scale ambient vertices: one prepare_artifact (timed) serves a
//        --queries mixed stream through the QueryService, against the
//        naive lifecycle that rebuilds the decomposition + hierarchy +
//        triangle plane for every query (sampled --rebuild-samples times
//        and extrapolated; the samples double as a thread-conformance
//        check -- every rebuild must reproduce the first build's results
//        and round charges bit-for-bit, and so must a save -> load XDA1
//        round trip).  Acceptance: >= 10x.
//   E8b  closed-loop load: --clients simulated clients, one outstanding
//        query each, submit-until-backpressure then flush; reports
//        steady-state qps and p50/p99 end-to-end latency.
//   soak closed-loop reruns under the fault plane (docs/robustness.md): one
//        pass at a 0% fault rate and one with serve.flush faults injected
//        at --fault-rate (default 1%), reporting qps/p99 plus the service's
//        health counters (faults seen, retries, degraded answers) -- the
//        cost-of-robustness measurement.
//
// --json PATH emits all blocks (the BENCH_serve.json trajectory point).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/xd.hpp"
#include "util/check.hpp"
#include "util/fault_plane.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The E4d-style multi-cluster family: disjoint G(cn, 8/cn) blocks.  250
/// vertices per block keeps whole-pipeline rebuilds affordable at 100k
/// vertices while still giving the decomposition real work per cluster.
xd::Graph multi_cluster_graph(std::size_t scale, xd::Rng& rng) {
  const std::size_t cn = 250;
  const std::size_t clusters = std::max<std::size_t>(1, scale / cn);
  const std::size_t n = clusters * cn;
  xd::GraphBuilder b(n);
  const double p = 8.0 / static_cast<double>(cn);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto base = static_cast<xd::VertexId>(c * cn);
    for (std::size_t i = 0; i < cn; ++i) {
      for (std::size_t j = i + 1; j < cn; ++j) {
        if (rng.next_bool(p)) {
          b.add_edge(base + static_cast<xd::VertexId>(i),
                     base + static_cast<xd::VertexId>(j));
        }
      }
    }
  }
  return b.build();
}

/// Deterministic mixed query source.  Route endpoints are drawn from one
/// decomposition component: on a connected graph the decomposition may cut
/// anywhere, so a fixed block layout would send routes across components.
class QuerySource {
 public:
  QuerySource(const xd::serve::PreparedArtifact& art, std::uint64_t seed)
      : art_(&art), rng_(seed), offsets_(art.num_components + 1, 0) {
    // Members bucketed by component (counting sort over the labels).
    const std::size_t n = art.graph.num_vertices();
    for (std::size_t v = 0; v < n; ++v) ++offsets_[art.component[v] + 1];
    for (std::uint32_t c = 0; c < art.num_components; ++c) {
      offsets_[c + 1] += offsets_[c];
    }
    members_.resize(n);
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      members_[cursor[art.component[v]]++] = static_cast<xd::VertexId>(v);
    }
  }

  xd::serve::Query next() {
    using xd::serve::QueryKind;
    const std::size_t n = art_->graph.num_vertices();
    xd::serve::Query q;
    const std::uint64_t pick = rng_.next_below(10);
    if (pick < 3) {
      q.kind = QueryKind::kRoute;
      q.a = static_cast<xd::VertexId>(rng_.next_below(n));
      const std::uint32_t c = art_->component_of(q.a);
      q.b = members_[offsets_[c] +
                     rng_.next_below(offsets_[c + 1] - offsets_[c])];
    } else if (pick < 6) {
      q.kind = QueryKind::kTrianglesOf;
      q.a = static_cast<xd::VertexId>(rng_.next_below(n));
    } else if (pick < 7) {
      q.kind = QueryKind::kTriangleMembership;
      q.a = static_cast<xd::VertexId>(rng_.next_below(n));
      q.b = static_cast<xd::VertexId>(rng_.next_below(n));
      q.c = static_cast<xd::VertexId>(rng_.next_below(n));
    } else if (pick < 8) {
      q.kind = QueryKind::kTriangleCount;
    } else if (pick < 9) {
      q.kind = QueryKind::kConductance;
      q.a = static_cast<xd::VertexId>(rng_.next_below(
          std::min<std::uint32_t>(16, art_->num_components)));
    } else {
      q.kind = QueryKind::kComponentOf;
      q.a = static_cast<xd::VertexId>(rng_.next_below(n));
    }
    return q;
  }

 private:
  const xd::serve::PreparedArtifact* art_;
  xd::Rng rng_;
  std::vector<std::size_t> offsets_;  ///< component -> first member slot
  std::vector<xd::VertexId> members_;
};

std::vector<xd::serve::Query> mixed_stream(
    const xd::serve::PreparedArtifact& art, std::size_t count,
    std::uint64_t seed) {
  QuerySource source(art, seed);
  std::vector<xd::serve::Query> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) stream.push_back(source.next());
  return stream;
}

/// Serves the whole stream (one client, batch after batch) and returns the
/// results in admission order.
std::vector<xd::serve::QueryResult> serve_stream(
    const xd::serve::PreparedArtifact& art, int threads,
    const std::vector<xd::serve::Query>& stream) {
  xd::serve::ServiceParams prm;
  prm.threads = threads;
  prm.max_pending = 256;
  prm.max_batch = 128;
  xd::serve::QueryService svc(art, prm);
  std::vector<xd::serve::QueryResult> all;
  std::size_t next = 0;
  while (next < stream.size() || svc.pending() > 0) {
    while (next < stream.size() && svc.submit(0, stream[next])) ++next;
    for (auto& r : svc.flush()) all.push_back(std::move(r));
  }
  return all;
}

bool same_results(const std::vector<xd::serve::QueryResult>& a,
                  const std::vector<xd::serve::QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok != b[i].ok || a[i].value != b[i].value ||
        a[i].scalar != b[i].scalar ||
        a[i].rounds_charged != b[i].rounds_charged ||
        a[i].messages != b[i].messages || a[i].ids != b[i].ids) {
      return false;
    }
  }
  return true;
}

bool same_build(const xd::serve::PreparedArtifact& a,
                const xd::serve::PreparedArtifact& b) {
  return a.triangles == b.triangles && a.component == b.component &&
         a.removed_edge == b.removed_edge && a.portals == b.portals &&
         a.enum_rounds == b.enum_rounds && a.build_rounds == b.build_rounds &&
         a.build_messages == b.build_messages;
}

struct E8a {
  std::size_t scale = 0;
  double build_ms = 0;
  double serve_ms = 0;
  std::size_t queries = 0;
  std::size_t rebuild_samples = 0;
  double rebuild_per_query_ms = 0;
  double rebuild_stream_ms = 0;
  double speedup = 0;
  bool meets_bar = false;
  bool exact = false;
  std::uint64_t build_rounds = 0;
  std::uint64_t enum_rounds = 0;
  std::uint64_t triangles = 0;
  std::uint64_t artifact_bytes = 0;
};

struct E8b {
  std::size_t clients = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  int threads = 0;
  xd::serve::ServiceHealth health;
};

/// One soak pass: the closed loop rerun under an injected fault rate.
struct Soak {
  double fault_rate = 0;
  E8b loop;
};

E8b closed_loop(const xd::serve::PreparedArtifact& art, std::size_t clients,
                int threads) {
  using xd::serve::Query;
  E8b out;
  out.clients = clients;
  out.threads = threads;
  xd::serve::ServiceParams prm;
  prm.threads = threads;
  prm.max_pending = std::max<std::size_t>(64, clients / 4);
  prm.max_batch = 256;
  xd::serve::QueryService svc(art, prm);

  const std::uint64_t target = std::max<std::uint64_t>(2000, clients * 2);
  // Every client's next query is a fresh draw from one seeded source, made
  // when its previous answer arrives (a rejected query is resubmitted).
  QuerySource source(art, 0xE8B);
  std::vector<Query> next_query(clients);
  for (auto& q : next_query) q = source.next();
  std::vector<char> outstanding(clients, 0);
  std::vector<Clock::time_point> submit_at;
  submit_at.reserve(target + clients);
  std::vector<double> latencies_us;
  latencies_us.reserve(target + clients);

  const auto t0 = Clock::now();
  std::uint64_t served = 0;
  while (served < target) {
    // Closed loop: every idle client submits its next query; a rejection
    // means the admission queue is full -- stop submitting and flush.
    bool full = false;
    for (std::size_t c = 0; c < clients && !full; ++c) {
      if (outstanding[c]) continue;
      const auto now = Clock::now();
      if (svc.submit(static_cast<std::uint32_t>(c), next_query[c])) {
        outstanding[c] = 1;
        submit_at.push_back(now);  // ticket order == admission order
      } else {
        full = true;
      }
    }
    const auto batch = svc.flush();
    const auto done = Clock::now();
    for (const auto& r : batch) {
      outstanding[r.client] = 0;
      next_query[r.client] = source.next();
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(
              done - submit_at[static_cast<std::size_t>(r.ticket)])
              .count());
    }
    served += batch.size();
    if (batch.empty() && full) break;  // defensive: nothing can progress
  }
  const double elapsed_ms = ms_since(t0);

  out.served = served;
  out.rejected = svc.total_rejected();
  out.health = svc.health();
  out.qps = elapsed_ms > 0 ? 1000.0 * static_cast<double>(served) / elapsed_ms
                           : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    out.p50_us = latencies_us[latencies_us.size() / 2];
    out.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  }
  return out;
}

/// One soak pass: the closed loop rerun with serve.flush faults armed at
/// `rate` (0 disarms the fault plane).  Injected flush faults retry and
/// recover -- answers stay exact -- so the pass measures what the retry
/// ladder costs in qps/p99, with the health counters alongside.
Soak soak_pass(const xd::serve::PreparedArtifact& art, std::size_t clients,
               int threads, double rate) {
  xd::FaultPlane& faults = xd::FaultPlane::instance();
  faults.reset();
  if (rate > 0) {
    std::ostringstream spec;
    spec << "seed=7,serve.flush:p=" << rate;
    faults.configure(spec.str());
  }
  Soak s;
  s.fault_rate = rate;
  s.loop = closed_loop(art, clients, threads);
  faults.reset();
  return s;
}

void write_json(const std::string& path, const E8a& a, const E8b& b,
                const std::vector<Soak>& soaks) {
  std::ofstream os(path);
  XD_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  os << "{\n  \"e8a\": {\n"
     << "    \"scale\": " << a.scale << ",\n"
     << "    \"build_ms\": " << a.build_ms << ",\n"
     << "    \"serve_ms\": " << a.serve_ms << ",\n"
     << "    \"queries\": " << a.queries << ",\n"
     << "    \"rebuild_samples\": " << a.rebuild_samples << ",\n"
     << "    \"rebuild_per_query_ms\": " << a.rebuild_per_query_ms << ",\n"
     << "    \"rebuild_stream_ms\": " << a.rebuild_stream_ms << ",\n"
     << "    \"speedup\": " << a.speedup << ",\n"
     << "    \"meets_10x_bar\": " << (a.meets_bar ? "true" : "false") << ",\n"
     << "    \"exact\": " << (a.exact ? "true" : "false") << ",\n"
     << "    \"build_rounds\": " << a.build_rounds << ",\n"
     << "    \"enum_rounds\": " << a.enum_rounds << ",\n"
     << "    \"triangles\": " << a.triangles << ",\n"
     << "    \"artifact_bytes\": " << a.artifact_bytes << "\n"
     << "  },\n  \"e8b\": {\n"
     << "    \"clients\": " << b.clients << ",\n"
     << "    \"served\": " << b.served << ",\n"
     << "    \"rejected\": " << b.rejected << ",\n"
     << "    \"qps\": " << b.qps << ",\n"
     << "    \"p50_us\": " << b.p50_us << ",\n"
     << "    \"p99_us\": " << b.p99_us << ",\n"
     << "    \"threads\": " << b.threads << "\n"
     << "  },\n  \"soak\": [\n";
  for (std::size_t i = 0; i < soaks.size(); ++i) {
    const Soak& s = soaks[i];
    os << "    {\n"
       << "      \"fault_rate\": " << s.fault_rate << ",\n"
       << "      \"served\": " << s.loop.served << ",\n"
       << "      \"qps\": " << s.loop.qps << ",\n"
       << "      \"p50_us\": " << s.loop.p50_us << ",\n"
       << "      \"p99_us\": " << s.loop.p99_us << ",\n"
       << "      \"health\": {\n"
       << "        \"faults_seen\": " << s.loop.health.faults_seen << ",\n"
       << "        \"flush_retries\": " << s.loop.health.flush_retries
       << ",\n"
       << "        \"degraded_answers\": " << s.loop.health.degraded_answers
       << ",\n"
       << "        \"deadline_hits\": " << s.loop.health.deadline_hits
       << ",\n"
       << "        \"retransmits\": " << s.loop.health.retransmits << "\n"
       << "      }\n"
       << "    }" << (i + 1 < soaks.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  XD_CHECK_MSG(os.good(), "short write on " << path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xd;
  std::string json_path;
  std::size_t scale = 100000;
  std::size_t queries = 100;
  std::size_t clients = 2000;
  std::size_t rebuild_samples = 2;
  int threads = 4;
  double fault_rate = 0.01;

  const auto parse_size = [&](const char* flag, const char* arg,
                              std::size_t& out) {
    try {
      std::size_t pos = 0;
      const std::string s = arg;
      if (s.empty() || s[0] == '-') throw std::invalid_argument(s);
      out = static_cast<std::size_t>(std::stoull(s, &pos));
      if (pos != s.size() || out == 0) throw std::invalid_argument(s);
      return true;
    } catch (const std::exception&) {
      std::cerr << "bench_serve: " << flag
                << " wants a positive integer, got '" << arg << "'\n";
      return false;
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::size_t threads_arg = 0;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      if (!parse_size("--scale", argv[++i], scale)) return 2;
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      if (!parse_size("--queries", argv[++i], queries)) return 2;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      if (!parse_size("--clients", argv[++i], clients)) return 2;
    } else if (std::strcmp(argv[i], "--rebuild-samples") == 0 &&
               i + 1 < argc) {
      if (!parse_size("--rebuild-samples", argv[++i], rebuild_samples)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_size("--threads", argv[++i], threads_arg)) return 2;
      threads = static_cast<int>(std::min<std::size_t>(threads_arg, 64));
    } else if (std::strcmp(argv[i], "--fault-rate") == 0 && i + 1 < argc) {
      const std::string s = argv[++i];
      try {
        std::size_t pos = 0;
        fault_rate = std::stod(s, &pos);
        if (pos != s.size() || fault_rate < 0 || fault_rate > 1) {
          throw std::invalid_argument(s);
        }
      } catch (const std::exception&) {
        std::cerr << "bench_serve: --fault-rate wants a number in [0, 1], "
                     "got '" << s << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_serve [--json PATH] [--scale N] "
                   "[--queries N] [--clients N] [--rebuild-samples N] "
                   "[--threads N] [--fault-rate R]\n";
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  Rng grng(271828);
  const Graph g = multi_cluster_graph(scale, grng);
  std::cout << "bench_serve: n=" << g.num_vertices()
            << " m=" << g.num_edges() << " threads=" << threads << "\n";

  serve::PrepareParams pp;
  pp.enumerate.scheduler_threads = threads;

  // ---- E8a: prepare once, serve the stream; A/B against rebuilds. ----
  E8a a;
  a.scale = g.num_vertices();
  a.queries = queries;
  a.rebuild_samples = rebuild_samples;

  const auto tb = Clock::now();
  const auto art = serve::prepare_artifact(g, pp);
  a.build_ms = ms_since(tb);
  a.build_rounds = art.build_rounds;
  a.enum_rounds = art.enum_rounds;
  a.triangles = art.triangle_count();

  const auto stream = mixed_stream(art, queries, 0xE8A);
  const auto ts = Clock::now();
  const auto once_results = serve_stream(art, threads, stream);
  a.serve_ms = ms_since(ts);

  // XDA1 round trip: the reloaded artifact must serve the same stream
  // bit-identically.
  const std::string xda =
      (std::filesystem::temp_directory_path() / "bench_serve_artifact.xda")
          .string();
  save_artifact(art, xda);
  a.artifact_bytes = std::filesystem::file_size(xda);
  const auto reloaded = serve::load_artifact(xda);
  std::filesystem::remove(xda);
  bool exact =
      same_build(art, reloaded) &&
      same_results(once_results, serve_stream(reloaded, threads, stream));

  // Rebuild lifecycle, sampled: every query pays the full prepare.  The
  // samples alternate scheduler thread counts, so they double as the
  // thread-conformance check (identical results AND round charges).
  double rebuild_total_ms = 0;
  for (std::size_t s = 0; s < rebuild_samples; ++s) {
    serve::PrepareParams rp = pp;
    rp.enumerate.scheduler_threads = s % 2 == 0 ? 1 : 2;
    const auto tr = Clock::now();
    const auto fresh = serve::prepare_artifact(g, rp);
    const auto fresh_results = serve_stream(fresh, threads, stream);
    // Under the naive lifecycle every query pays one full build, so the
    // sample (one build + the stream's serve tail, well under 1% of it)
    // is the per-query cost; the stream total extrapolates x queries.
    rebuild_total_ms += ms_since(tr);
    exact = exact && same_build(art, fresh) &&
            same_results(once_results, fresh_results);
  }
  a.exact = exact;
  a.rebuild_per_query_ms =
      rebuild_total_ms / static_cast<double>(rebuild_samples);
  a.rebuild_stream_ms =
      a.rebuild_per_query_ms * static_cast<double>(queries);
  const double once_ms = a.build_ms + a.serve_ms;
  a.speedup = once_ms > 0 ? a.rebuild_stream_ms / once_ms : 0.0;
  a.meets_bar = a.speedup >= 10.0;

  Table e8a("E8a: prepare-once vs rebuild-per-query (" +
                std::to_string(queries) + "-query stream)",
            {"lifecycle", "build ms", "serve ms", "stream ms", "exact"});
  e8a.add_row({"prepare once", Table::cell(a.build_ms),
               Table::cell(a.serve_ms), Table::cell(once_ms),
               a.exact ? "yes" : "NO"});
  e8a.add_row({"rebuild per query", Table::cell(a.rebuild_per_query_ms),
               "-", Table::cell(a.rebuild_stream_ms), "-"});
  e8a.add_row({"speedup", "-", "-", Table::cell(a.speedup),
               a.meets_bar ? ">=10x" : "BELOW BAR"});
  e8a.print();

  // ---- E8b: closed-loop load. ----
  const E8b b = closed_loop(art, clients, threads);
  Table e8b("E8b: closed-loop service (" + std::to_string(clients) +
                " clients, 1 outstanding each)",
            {"served", "rejected", "qps", "p50 us", "p99 us"});
  e8b.add_row({Table::cell(b.served), Table::cell(b.rejected),
               Table::cell(b.qps), Table::cell(b.p50_us),
               Table::cell(b.p99_us)});
  e8b.print();

  // ---- soak: the closed loop under injected flush faults. ----
  std::vector<Soak> soaks;
  soaks.push_back(soak_pass(art, clients, threads, 0.0));
  if (fault_rate > 0) {
    soaks.push_back(soak_pass(art, clients, threads, fault_rate));
  }
  Table soak_tbl("soak: closed loop under serve.flush faults",
                 {"fault rate", "qps", "p99 us", "faults", "retries",
                  "degraded"});
  for (const Soak& s : soaks) {
    soak_tbl.add_row({Table::cell(s.fault_rate), Table::cell(s.loop.qps),
                      Table::cell(s.loop.p99_us),
                      Table::cell(s.loop.health.faults_seen),
                      Table::cell(s.loop.health.flush_retries),
                      Table::cell(s.loop.health.degraded_answers)});
  }
  soak_tbl.print();

  if (!json_path.empty()) {
    write_json(json_path, a, b, soaks);
    std::cout << "wrote " << json_path << "\n";
  }
  if (!a.exact) {
    std::cerr << "bench_serve: EXACTNESS FAILURE -- artifact-served answers "
                 "diverged from a fresh build\n";
    return 1;
  }
  return 0;
}
