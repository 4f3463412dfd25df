#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>

#include "bench.hpp"
#include "trace.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "triangle/baseline_local.hpp"

namespace xdbench {

namespace fs = std::filesystem;

bool find_workload(const std::string& name, bool tiny, Workload& out) {
  // build-sbm: 40 blocks of 500, so the decomposition cuts (Remove-2 mostly)
  // and enumeration recurses over thousands of clusters.
  // build-powerlaw: one certified expander, dense Nibble supports, hubs.
  // serve-mixed: the SBM family at half size, prepared in set-up.
  static const Workload kTable[] = {
      {"build-sbm", Family::kSbm, 20000, 40, 12.0 / 500, 0.3, 0, false},
      {"build-powerlaw", Family::kPowerLaw, 20000, 0, 0, 0, 10, false},
      {"serve-mixed", Family::kSbm, 10000, 20, 12.0 / 500, 0.3, 0, true},
  };
  for (const Workload& wl : kTable) {
    if (name != wl.name) continue;
    out = wl;
    if (tiny) {
      // Same families, two SBM blocks / 1000 vertices: seconds, not minutes.
      out.n = 1000;
      if (out.family == Family::kSbm) out.blocks = 2;
    }
    return true;
  }
  return false;
}

xd::serve::PrepareParams build_params() {
  xd::serve::PrepareParams prm;
  prm.enumerate.scheduler_threads = kBuildThreads;
  return prm;
}

void Tally::check(bool ok, const char* what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::cerr << "xdbench: check failed: " << what << "\n";
}

LoadedInput load_input(const Workload& wl, std::uint64_t seed, int instance,
                       const fs::path& dir, Tracer* tracer) {
  // Times one call; with a tracer, also records it as a span.
  const auto timed = [tracer](const char* span, auto&& call) {
    const auto t0 = Clock::now();
    if (tracer) {
      Span s(*tracer, span);
      call();
    } else {
      call();
    }
    return seconds_since(t0);
  };

  LoadedInput in;
  xd::Graph g;
  xd::Rng rng =
      xd::Rng(seed).fork(0x6E4).fork(static_cast<std::uint64_t>(instance));
  in.generate_s = timed("graph.generate", [&] {
    g = wl.family == Family::kSbm
            ? xd::gen::planted_partition(
                  wl.n, wl.blocks, wl.p_in,
                  wl.p_out_n / static_cast<double>(wl.n), rng)
            : xd::gen::preferential_attachment(wl.n, wl.attach, rng);
  });

  const fs::path file = dir / "graph.xdg";
  in.write_s = timed("graph.write", [&] {
    xd::write_binary_edge_list_file(g, file.string());
  });

  xd::BinaryLoadOptions opt;
  opt.threads = kBuildThreads;
  in.load_s = timed("graph.load", [&] {
    in.graph = xd::read_binary_edge_list_file(file.string(), opt).graph;
  });
  return in;
}

double cut_fraction(const xd::serve::PreparedArtifact& art) {
  const xd::Graph& g = art.graph;
  std::uint64_t inter = 0;
  for (xd::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    inter += art.component[u] != art.component[v];
  }
  return g.num_edges() == 0
             ? 0.0
             : static_cast<double>(inter) / static_cast<double>(g.num_edges());
}

namespace {

std::vector<char> file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

void gate_artifact(const xd::serve::PreparedArtifact& art, const fs::path& dir,
                   Tally& tally) {
  const xd::Graph& g = art.graph;
  const std::size_t n = g.num_vertices();

  xd::congest::RoundLedger scratch;
  const auto base = xd::triangle::enumerate_local_baseline(g, scratch);
  tally.check(base.triangles == art.triangles,
              "artifact triangles equal enumerate_local_baseline");

  bool partition = art.component.size() == n &&
                   art.components.size() == art.num_components;
  std::vector<std::uint32_t> sizes(art.num_components, 0);
  for (std::size_t v = 0; partition && v < n; ++v) {
    partition = art.component[v] < art.num_components;
    if (partition) ++sizes[art.component[v]];
  }
  for (std::uint32_t c = 0; partition && c < art.num_components; ++c) {
    partition = sizes[c] > 0 && sizes[c] == art.components[c].size;
  }
  tally.check(partition, "component labels partition V");

  const double cut = partition ? cut_fraction(art) : 1.0;
  tally.check(cut <= art.epsilon, "cut_frac <= epsilon");

  const fs::path a = dir / "gate-a.xda";
  const fs::path b = dir / "gate-b.xda";
  xd::serve::save_artifact(art, a.string());
  const auto back = xd::serve::load_artifact(a.string());
  xd::serve::save_artifact(back, b.string());
  tally.check(file_bytes(a) == file_bytes(b) &&
                  back.triangles == art.triangles &&
                  back.component == art.component,
              "XDA1 save -> load -> save is byte-identical");
  fs::remove(a);
  fs::remove(b);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace xdbench
