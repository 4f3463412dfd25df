/// xdbench: end-to-end benchmark of the build-once / serve lifecycle.
///
///   xdbench --workload NAME --seed N --seconds S --trace 0|1
///           --workdir DIR [--tiny] [--corrupt]
///
/// --trace 0 measures the end-to-end metrics, --trace 1 makes the separate
/// traced per-layer run.  The last line of stdout is one JSON object with
/// correct / attempted / failed / metrics.  Any failed check exits 1.
/// xdbench/run.py builds this binary and is the command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <optional>
#include <string>

#include <unistd.h>

#include "bench.hpp"

namespace xdbench {
namespace {

namespace fs = std::filesystem;

/// Serving slice after each build of a build workload, as a share of
/// --seconds.
constexpr double kBuildSliceShare = 0.2;
/// Set-up repeats until this much set-up time is spent (at least once per
/// instance), so a set-up of a tenth of a second still gets a steady median.
constexpr double kMinSetupSeconds = 1.5;

[[noreturn]] void usage(const char* why) {
  std::cerr << "xdbench: " << why
            << "\nusage: xdbench --workload build-sbm|build-powerlaw|"
               "serve-mixed --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--tiny] [--corrupt]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || used != s.size() || s[0] == '-') {
    usage((std::string(flag) + " wants a non-negative integer").c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((a + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(value(), "--seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace wants 0 or 1");
      o.trace = t == "1";
      have_trace = true;
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_trace || o.seconds < 1 ||
      o.workdir.empty()) {
    usage("--workload, --seed, --seconds >= 1, --trace and --workdir are "
          "required");
  }
  return o;
}

/// One graph instance of a run: its input, the artifact of its first
/// build, and its query stream.
struct Instance {
  LoadedInput in;
  xd::serve::PreparedArtifact art;
  std::optional<QueryMix> mix;  // set once `art` is final
};

/// The untraced measurement: every end-to-end metric.
void run_untraced(const Workload& wl, const Options& opt, Tally& tally,
                  Metrics& out) {
  const xd::serve::PrepareParams prm = build_params();
  std::vector<Instance> inst(kInstances);  // never resized: mixes hold &art
  std::vector<double> setup_s;
  std::vector<double> build_s;

  const auto build = [&](const Instance& x) {
    const auto t0 = Clock::now();
    xd::serve::PreparedArtifact built =
        xd::serve::prepare_artifact(x.in.graph, prm);
    build_s.push_back(seconds_since(t0));
    return built;
  };

  // Host speed on a shared VM drifts over tens of seconds, so serving is
  // spread over the whole run rather than measured in one block: serve-mixed
  // serves each instance for --seconds / kInstances right after setting it
  // up, and build workloads build the instances in turn, each build
  // followed by a serving slice of that instance's artifact, until
  // --seconds have passed.
  ServeConfig cfg;
  cfg.corrupt_one = opt.corrupt;
  ServeStats st;
  const auto serve = [&](Instance& x) {
    serve_closed_loop(x.art, *x.mix, cfg, tally, st);
    cfg.corrupt_one = false;
  };

  for (int i = 0; i < kInstances; ++i) {
    Instance& x = inst[static_cast<std::size_t>(i)];
    const auto t0 = Clock::now();
    x.in = load_input(wl, opt.seed, i, opt.workdir);
    if (wl.serve) {
      const auto built = build(x);
      const fs::path file = opt.workdir / "serve.xda";
      xd::serve::save_artifact(built, file.string());
      x.art = xd::serve::load_artifact(file.string());
      tally.check(x.art.triangles == built.triangles &&
                      x.art.component == built.component &&
                      x.art.build_rounds == built.build_rounds,
                  "XDA1 round trip keeps the prepared artifact");
      x.mix.emplace(x.art, opt.seed, i);
    }
    setup_s.push_back(seconds_since(t0));
    if (wl.serve) {
      cfg.seconds = opt.seconds / kInstances;
      serve(x);
    }
  }
  for (std::size_t r = 0;
       std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < kMinSetupSeconds;
       ++r) {
    const Instance& x = inst[r % kInstances];
    const auto t0 = Clock::now();
    const LoadedInput again = load_input(wl, opt.seed,
                                         static_cast<int>(r % kInstances),
                                         opt.workdir);
    setup_s.push_back(seconds_since(t0));
    bool same = again.graph.num_vertices() == x.in.graph.num_vertices() &&
                again.graph.num_edges() == x.in.graph.num_edges();
    for (xd::EdgeId e = 0; same && e < x.in.graph.num_edges(); ++e) {
      same = again.graph.edge(e) == x.in.graph.edge(e);
    }
    tally.check(same, "set-up is a pure function of the seed");
  }

  if (!wl.serve) {
    cfg.seconds = kBuildSliceShare * opt.seconds;
    const auto start = Clock::now();
    for (int k = 0;; ++k) {
      const int i = k % kInstances;
      Instance& x = inst[static_cast<std::size_t>(i)];
      xd::serve::PreparedArtifact built = build(x);
      if (!x.mix) {
        x.art = std::move(built);
        x.mix.emplace(x.art, opt.seed, i);
      } else {
        tally.check(built.component == x.art.component &&
                        built.triangles == x.art.triangles &&
                        built.build_rounds == x.art.build_rounds &&
                        built.build_messages == x.art.build_messages,
                    "repeated builds are bit-identical");
      }
      serve(x);
      if (seconds_since(start) >= opt.seconds && k + 1 >= kInstances) break;
    }
  }

  std::vector<double> messages;
  std::vector<double> kept;
  for (const Instance& x : inst) {
    gate_artifact(x.art, opt.workdir, tally);
    messages.push_back(static_cast<double>(x.art.build_messages));
    kept.push_back(1.0 - cut_fraction(x.art));
  }

  std::cout << "xdbench: " << wl.name << " seed " << opt.seed << ": builds";
  for (const double b : build_s) std::cout << " " << b;
  std::cout << " s; per instance components/cut_frac/build_rounds";
  for (const Instance& x : inst) {
    std::cout << " " << x.art.num_components << "/" << cut_fraction(x.art)
              << "/" << x.art.build_rounds;
  }
  std::cout << "; " << st.answers << " answers in " << st.timed_s
            << " s, latency over " << st.window_qps.size()
            << " windows of up to " << kWindowAnswers << " answers\n";

  out.push_back({"setup_s", median(setup_s), "s"});
  out.push_back({"build_s", median(build_s), "s"});
  out.push_back({"build_messages", median(messages), "msgs"});
  out.push_back({"kept_frac", median(kept), "ratio"});
  out.push_back({"qps", median(st.window_qps), "1/s"});
  out.push_back({"query_p50_us", median(st.window_p50_us), "us"});
  out.push_back({"query_p99_us", median(st.window_p99_us), "us"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

void print_json(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace xdbench

int main(int argc, char** argv) {
  using namespace xdbench;
  const Options base = parse(argc, argv);
  Workload wl{};
  if (!find_workload(base.workload, base.tiny, wl)) {
    usage(("unknown workload " + base.workload).c_str());
  }
  Options opt = base;
  opt.workdir = base.workdir / (base.workload + "-" +
                                std::to_string(base.seed) + "-" +
                                std::to_string(::getpid()));
  Tally tally;
  Metrics metrics;
  try {
    fs::create_directories(opt.workdir);
    if (opt.trace) {
      run_traced(wl, opt, tally, metrics);
    } else {
      run_untraced(wl, opt, tally, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "xdbench: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(opt.workdir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(opt.workdir, ec);

  for (const Metric& m : metrics) {
    tally.check(std::isfinite(m.value), "metric value is finite");
  }
  std::cout << "xdbench: failed_frac " << tally.failed() << "/"
            << tally.attempted() << "\n";
  print_json(tally, metrics);
  return tally.failed() == 0 ? 0 : 1;
}
