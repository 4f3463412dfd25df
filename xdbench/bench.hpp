#pragma once

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark (xdbench/README.md): the
/// workload table, input set-up, the output gates, and the closed-loop
/// serving loop.  main.cpp runs the untraced measurement, traced.cpp the
/// traced per-layer run.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "serve/artifact.hpp"
#include "serve/service.hpp"

namespace xdbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// Host threads of every build (PrepareParams::enumerate.scheduler_threads)
/// and of the loader's dedup sort.  Round charges are identical at every
/// thread count >= 1; this only shapes wall time.
inline constexpr int kBuildThreads = 2;

/// Phase A threads of the query service in the measured runs.  At two
/// threads EpochScheduler::run constructs a std::thread per flush, which
/// made qps swing about 2x from run to run; one thread runs Phase A inline.
/// The traced run reports the two-thread figure as serve.qps_2threads.
inline constexpr int kServeThreads = 1;

/// Closed-loop client count: one outstanding query each.
inline constexpr std::size_t kClients = 256;

enum class Family { kSbm, kPowerLaw };

struct Workload {
  const char* name;
  Family family;
  std::size_t n;
  int blocks;         ///< SBM only
  double p_in;        ///< SBM only
  double p_out_n;     ///< SBM only: p_out = p_out_n / n
  int attach;         ///< power law only
  bool serve;         ///< serve-mixed: prepare is set-up, serving is measured
};

/// Looks a workload up by name; `tiny` shrinks it for the self-test.
/// Returns false for an unknown name.
bool find_workload(const std::string& name, bool tiny, Workload& out);

/// The build parameters every workload uses: PrepareParams defaults (seed
/// 17, epsilon 1/6, k 2) with kBuildThreads scheduler threads.
xd::serve::PrepareParams build_params();

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

/// Command-line options shared by both runs.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;     ///< self-test scale
  bool corrupt = false;  ///< self-test: corrupt one served answer
  std::filesystem::path workdir;
};

/// Counts attempted and failed operations; prints the first few misses.
class Tally {
 public:
  void check(bool ok, const char* what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Graph instances per run.  Each run draws this many graphs of its
/// workload's family from the seed and spreads its builds and serving over
/// them, so a run's medians do not hinge on one draw of the generator.
inline constexpr int kInstances = 3;

/// Generates instance `instance` of the workload graph from `seed`, writes
/// it as XDG1 under `dir` and reads it back.  The read-back graph is what
/// the library gets.
struct LoadedInput {
  xd::Graph graph;
  double generate_s = 0;
  double write_s = 0;
  double load_s = 0;
};
class Tracer;
/// With a tracer, each library call (generate, write, read) gets a span.
LoadedInput load_input(const Workload& wl, std::uint64_t seed, int instance,
                       const std::filesystem::path& dir,
                       Tracer* tracer = nullptr);

/// Inter-component edges / m.
double cut_fraction(const xd::serve::PreparedArtifact& art);

/// Output gate of one build: triangles equal the local baseline, the labels
/// partition V, cut_frac <= epsilon, and XDA1 save -> load -> save is
/// byte-identical.  Every check counts as one attempted operation.
void gate_artifact(const xd::serve::PreparedArtifact& art,
                   const std::filesystem::path& dir, Tally& tally);

/// Seeded query mix: 30/30/10/10/10/10 route / triangles-of / membership /
/// count / conductance / component-of.  Route endpoints share one relay
/// tree (so one component), and each call draws a fresh query.
class QueryMix {
 public:
  QueryMix(const xd::serve::PreparedArtifact& art, std::uint64_t seed,
           int instance);
  xd::serve::Query next();
  /// A query of one kind only (the traced run's single-kind streams).
  xd::serve::Query next_of(xd::serve::QueryKind kind);

 private:
  const xd::serve::PreparedArtifact& art_;
  xd::Rng rng_;
  std::vector<std::uint32_t> tree_of_;       ///< per vertex: relay tree
  std::vector<std::uint32_t> tree_offsets_;  ///< CSR over trees
  std::vector<xd::VertexId> tree_members_;
};

/// Checks one answer against the artifact's accessors; routes must be
/// adjacent hop by hop from a and end at b.
bool answer_correct(const xd::serve::PreparedArtifact& art,
                    const xd::serve::Query& q,
                    const xd::serve::QueryResult& r);

struct ServeConfig {
  int threads = kServeThreads;
  double seconds = 1.0;
  /// Single-kind stream (traced run) instead of the mix.
  bool single_kind = false;
  xd::serve::QueryKind kind = xd::serve::QueryKind::kComponentOf;
  /// Self-test: corrupt the first answer before it is checked.
  bool corrupt_one = false;
};

/// Answers per measurement window of the serving loop.  qps and the
/// latency percentiles are computed per window and reported as medians over
/// windows, so a burst of host noise moves one window, not the figure.
inline constexpr std::uint64_t kWindowAnswers = std::uint64_t{1} << 18;

struct ServeStats {
  std::uint64_t answers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  double timed_s = 0;  ///< submit + flush wall time, checks excluded
  /// Per window: answers / timed_s, and the p50 / p99 of submit ->
  /// flush-return latency over the window's answers.
  std::vector<double> window_qps;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> flush_us;      ///< per flush
  std::uint64_t flushes = 0;
  std::uint64_t rounds = 0;  ///< sum of the services' clocks
  std::uint64_t degraded_answers = 0;
  std::uint64_t flush_retries = 0;
};

/// Closed loop: kClients clients, one outstanding query each; a client
/// submits its next query as soon as its answer comes back.  Runs one fresh
/// QueryService for cfg.seconds of wall time, checks every answer outside
/// the timed part, and adds its figures to `st` (several slices of one run
/// accumulate into one ServeStats).
void serve_closed_loop(const xd::serve::PreparedArtifact& art, QueryMix& mix,
                       const ServeConfig& cfg, Tally& tally, ServeStats& st);

/// q-quantile (0..1) of `v` by nearest rank; reorders v.
double quantile(std::vector<double>& v, double q);

/// Median of a copy of v.
double median(std::vector<double> v);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// The traced per-layer run (traced.cpp): appends every per-layer metric.
void run_traced(const Workload& wl, const Options& opt, Tally& tally,
                Metrics& out);

}  // namespace xdbench
