/// The traced per-layer run.  It replays what prepare_artifact does
/// (expander_decomposition on Rng(seed).fork(0xD5C0), then
/// enumerate_congest on Rng(seed)) under spans, checks the replay against a
/// real build, and calls each layer's public entry point on the workload
/// graph.  Spans are recorded here, around the library calls; the library
/// itself is not instrumented.

#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "congest/scheduler.hpp"
#include "expander/decomposition.hpp"
#include "expander/verify.hpp"
#include "graph/graph_view.hpp"
#include "ldd/ldd.hpp"
#include "routing/hierarchical_router.hpp"
#include "sparsecut/nibble.hpp"
#include "sparsecut/partition.hpp"
#include "sparsecut/random_nibble.hpp"
#include "spectral/lazy_walk.hpp"
#include "trace.hpp"
#include "triangle/baseline_local.hpp"
#include "triangle/enumerate.hpp"
#include "triangle/intersect.hpp"

namespace xdbench {

namespace {

namespace fs = std::filesystem;

/// Ledger labels reported as expander.rounds.<label> (with '/' -> '.'):
/// the ones the decomposition charges on every workload.  Fixed so every
/// workload emits the same metric names.
constexpr const char* kDecompLabels[] = {
    "ParallelNibble/generate",
    "ParallelNibble/nibbles",
    "ParallelNibble/select",
};
constexpr const char* kRouterPreprocess = "HierarchicalRouter/preprocess";
constexpr const char* kRouterQuery = "HierarchicalRouter/query";

/// Truncated walks sampled for spectral.walk_*.
constexpr int kWalks = 8;
/// Trivial epochs timed for congest.epoch_us.
constexpr int kEpochReps = 2000;
/// Serving time of the traced run's mixed stream and of each single-kind
/// stream.
constexpr double kTracedServeSeconds = 2.0;
constexpr double kSingleKindSeconds = 1.0;

std::string metric_label(std::string label) {
  std::replace(label.begin(), label.end(), '/', '.');
  return label;
}

xd::expander::DecompositionParams decomposition_params(
    const xd::serve::PrepareParams& prm) {
  // Exactly the parameters prepare_artifact derives from PrepareParams.
  xd::expander::DecompositionParams d;
  d.epsilon = prm.enumerate.epsilon;
  d.k = prm.enumerate.k;
  d.phi0_override = prm.enumerate.phi0_override;
  d.scheduler_threads = prm.enumerate.scheduler_threads;
  d.backend = prm.decomp_backend;
  return d;
}

}  // namespace

void run_traced(const Workload& wl, const Options& opt, Tally& tally,
                Metrics& out) {
  const std::string trace_id =
      std::string(wl.name) + "-seed" + std::to_string(opt.seed);
  Tracer tracer(trace_id);
  const auto put = [&out](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const auto count = [](auto v) { return static_cast<double>(v); };

  const xd::serve::PrepareParams prm = build_params();

  // ---- set-up ----
  const LoadedInput in = load_input(wl, opt.seed, 0, opt.workdir, &tracer);
  const xd::Graph& g = in.graph;
  put("graph.load_ms", in.load_s * 1e3, "ms");

  // ---- the real build.  The first build of a process also grows its heap,
  // so it only warms up; then one build timed by a bare clock and one inside
  // a span, whose difference is what tracing costs a build ----
  const xd::serve::PreparedArtifact art = xd::serve::prepare_artifact(g, prm);
  const auto same_build = [&](const xd::serve::PreparedArtifact& other) {
    tally.check(other.component == art.component &&
                    other.triangles == art.triangles &&
                    other.build_rounds == art.build_rounds,
                "repeated builds are bit-identical");
  };
  double prepare_ms = 0;
  {
    const auto t0 = Clock::now();
    const auto untraced = xd::serve::prepare_artifact(g, prm);
    prepare_ms = seconds_since(t0) * 1e3;
    same_build(untraced);
  }
  {
    Span s(tracer, "serve.prepare");
    const auto traced = xd::serve::prepare_artifact(g, prm);
    put("trace.overhead_ms", s.stop() - prepare_ms, "ms");
    same_build(traced);
  }

  // ---- the replay: decomposition, then enumeration, on one ledger ----
  const auto dprm = decomposition_params(prm);
  xd::congest::RoundLedger ledger;
  xd::expander::DecompositionResult decomp;
  double decomp_ms = 0;
  {
    Span s(tracer, "expander.decomp");
    xd::Rng drng = xd::Rng(prm.seed).fork(0xD5C0);
    decomp = xd::expander::expander_decomposition(g, dprm, drng, ledger);
    decomp_ms = s.stop();
  }
  const std::uint64_t decomp_rounds = ledger.rounds();
  const std::uint64_t decomp_messages = ledger.messages();
  put("expander.decomp_ms", decomp_ms, "ms");
  put("expander.rounds", count(decomp_rounds), "rounds");
  put("expander.messages", count(decomp_messages), "msgs");
  put("expander.components", count(decomp.num_components), "count");
  put("expander.removed_1", count(decomp.removed_by[0]), "count");
  put("expander.removed_2", count(decomp.removed_by[1]), "count");
  put("expander.removed_3", count(decomp.removed_by[2]), "count");
  for (const char* label : kDecompLabels) {
    put("expander.rounds." + metric_label(label),
        count(ledger.rounds_for(label)), "rounds");
  }

  const std::uint64_t pre_router = ledger.rounds_for(kRouterPreprocess);
  const std::uint64_t query_router = ledger.rounds_for(kRouterQuery);
  xd::triangle::CongestEnumResult enumed;
  double enum_ms = 0;
  {
    Span s(tracer, "triangle.enum");
    xd::Rng erng(prm.seed);
    enumed = xd::triangle::enumerate_congest(g, prm.enumerate, erng, ledger);
    enum_ms = s.stop();
  }
  put("triangle.enum_ms", enum_ms, "ms");
  put("triangle.rounds", count(ledger.rounds() - decomp_rounds), "rounds");
  put("triangle.levels", count(enumed.levels), "count");
  put("triangle.clusters", count(enumed.clusters_processed), "count");
  put("triangle.router_queries", count(enumed.router_queries), "count");
  put("triangle.rounds.HierarchicalRouter.preprocess",
      count(ledger.rounds_for(kRouterPreprocess) - pre_router), "rounds");
  put("triangle.rounds.HierarchicalRouter.query",
      count(ledger.rounds_for(kRouterQuery) - query_router), "rounds");
  put("build.rounds", count(art.build_rounds), "rounds");
  put("build.messages", count(art.build_messages), "msgs");

  const bool replay_matches = decomp.component == art.component &&
                              enumed.triangles == art.triangles &&
                              ledger.rounds() == art.build_rounds &&
                              ledger.messages() == art.build_messages;
  put("trace.replay_matches", replay_matches ? 1.0 : 0.0, "bool");
  put("serve.prepare_ms", prepare_ms, "ms");
  put("serve.prepare_residual_ms", prepare_ms - decomp_ms - enum_ms, "ms");
  put("trace.attributed_frac", (decomp_ms + enum_ms) / prepare_ms, "ratio");
  put("expander.cut_frac", cut_fraction(art), "ratio");

  {
    Span s(tracer, "expander.verify");
    const auto report = xd::expander::verify_decomposition(
        g, decomp, dprm.epsilon, decomp.phi_guarantee);
    put("expander.verify_ms", s.stop(), "ms");
    (void)report;
  }

  // ---- single layers on the workload graph ----
  const xd::expander::Schedule schedule = xd::expander::derive_schedule(
      dprm, g.num_vertices(), g.num_edges(), g.volume());
  {
    xd::congest::RoundLedger lg;
    xd::Rng rng = xd::Rng(prm.seed).fork(0x1DD);
    xd::congest::Network net(g, lg, rng());
    xd::ldd::LddParams lp;
    lp.beta = schedule.beta;
    lp.K = dprm.ldd_K;
    Span s(tracer, "ldd");
    const auto res = xd::ldd::low_diameter_decomposition(net, lp, rng);
    put("ldd.ms", s.stop(), "ms");
    put("ldd.rounds", count(res.rounds), "rounds");
    put("ldd.clusters", count(res.num_components), "count");
  }
  {
    // Nibble's walk: from degree-sampled starts at a sampled scale b (what
    // RandomNibble draws), as many steps at eps_b as Nibble itself runs
    // there before it stalls or accepts a cut.
    const std::size_t m = std::max<std::size_t>(g.num_edges(), 1);
    const auto np = xd::sparsecut::NibbleParams::practical(
        xd::sparsecut::theorem3_phi_run(schedule.phi[0], m, dprm.preset), m,
        g.volume());
    xd::Rng rng = xd::Rng(prm.seed).fork(0x3A1C);
    std::uint64_t support = 0;
    std::uint64_t steps = 0;
    double walk_ms = 0;
    double nibble_ms = 0;
    for (int w = 0; w < kWalks; ++w) {
      const xd::VertexId v = xd::sparsecut::sample_by_degree(g, rng);
      const int b = rng.next_nibble_scale(np.ell);
      int nibble_steps = 0;
      {
        Span s(tracer, "sparsecut.nibble");
        nibble_steps =
            xd::sparsecut::approximate_nibble(g, v, np, b).steps_run;
        nibble_ms += s.stop();
      }
      Span s(tracer, "spectral.walk");
      const auto walk =
          xd::spectral::truncated_walk(g, v, nibble_steps, np.eps_b(b));
      walk_ms += s.stop();
      for (std::size_t t = 1; t < walk.size(); ++t) {
        support += walk[t].size();
        ++steps;
      }
    }
    put("sparsecut.nibble_ms", nibble_ms, "ms");
    put("spectral.walk_ms", walk_ms, "ms");
    put("spectral.walk_steps", count(steps), "count");
    put("spectral.walk_support_mean",
        steps ? count(support) / count(steps) : 0.0, "count");
  }
  {
    xd::congest::RoundLedger lg;
    xd::Rng rng = xd::Rng(prm.seed).fork(0x5C07);
    Span s(tracer, "sparsecut");
    const auto res = xd::sparsecut::nearly_most_balanced_sparse_cut(
        g, schedule.phi[0], dprm.preset, rng, lg);
    put("sparsecut.cut_ms", s.stop(), "ms");
    put("sparsecut.rounds", count(res.rounds), "rounds");
    // No cut certifies the whole graph: reported as conductance 1.
    put("sparsecut.conductance", res.found() ? res.conductance : 1.0,
        "ratio");
  }
  {
    std::vector<std::uint32_t> size(art.num_components, 0);
    for (const std::uint32_t c : art.component) ++size[c];
    const auto largest = static_cast<std::uint32_t>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<xd::VertexId> members;
    for (xd::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (art.component[v] == largest) members.push_back(v);
    }
    const xd::GraphView view(g, &art.removed_edge,
                             xd::VertexSet(std::move(members)));
    const auto sub = view.materialize_induced();
    xd::congest::RoundLedger lg;
    xd::routing::HierarchicalParams hp;
    hp.depth = prm.enumerate.router_depth;
    Span s(tracer, "routing.preprocess");
    xd::routing::HierarchicalRouter router(sub.graph, lg, hp);
    const std::uint64_t rounds = router.preprocess();
    put("routing.preprocess_ms", s.stop(), "ms");
    put("routing.preprocess_rounds", count(rounds), "rounds");
  }
  {
    // KernelStats are per thread: enumerate on the calling thread.
    xd::triangle::EnumParams seq = prm.enumerate;
    seq.scheduler_threads = 0;
    xd::congest::RoundLedger lg;
    xd::Rng erng(prm.seed);
    xd::triangle::intersect::reset_thread_stats();
    Span s(tracer, "triangle.kernel_pass");
    const auto res = xd::triangle::enumerate_congest(g, seq, erng, lg);
    s.stop();
    tally.check(res.triangles == art.triangles,
                "sequential enumeration lists the build's triangles");
    const auto& ks = xd::triangle::intersect::stats_for_thread();
    for (std::size_t k = 0; k < xd::triangle::intersect::kKernelCount; ++k) {
      const auto kernel = static_cast<xd::triangle::intersect::Kernel>(k);
      const std::string base = std::string("triangle.kernel.") +
                               xd::triangle::intersect::kernel_name(kernel);
      put(base + ".calls", count(ks.of(kernel).calls), "count");
      put(base + ".elements", count(ks.of(kernel).elements), "count");
    }
  }
  {
    xd::congest::RoundLedger lg;
    Span s(tracer, "triangle.baseline");
    const auto base = xd::triangle::enumerate_local_baseline(g, lg);
    put("triangle.baseline_ms", s.stop(), "ms");
    tally.check(base.triangles == art.triangles,
                "artifact triangles equal enumerate_local_baseline");
  }

  // ---- serving ----
  const fs::path file = opt.workdir / "traced.xda";
  {
    Span s(tracer, "serve.save");
    xd::serve::save_artifact(art, file.string());
    put("serve.save_ms", s.stop(), "ms");
  }
  put("serve.artifact_bytes", count(fs::file_size(file)), "bytes");
  xd::serve::PreparedArtifact served;
  {
    Span s(tracer, "serve.load");
    served = xd::serve::load_artifact(file.string());
    put("serve.load_ms", s.stop(), "ms");
  }
  {
    QueryMix mix(served, opt.seed, 0);
    ServeConfig cfg;
    cfg.seconds = opt.tiny ? 0.2 : kTracedServeSeconds;
    Span s(tracer, "serve.mixed");
    ServeStats st;
    serve_closed_loop(served, mix, cfg, tally, st);
    s.stop();
    const double flushes = count(std::max<std::uint64_t>(st.flushes, 1));
    put("serve.flush_us_p50", quantile(st.flush_us, 0.50), "us");
    put("serve.flush_us_p99", quantile(st.flush_us, 0.99), "us");
    put("serve.batch_size_mean", count(st.answers) / flushes, "count");
    put("serve.reject_ratio",
        st.submitted ? count(st.rejected) / count(st.submitted) : 0.0,
        "ratio");
    put("serve.rounds_per_query",
        st.answers ? count(st.rounds) / count(st.answers) : 0.0, "rounds");
    put("serve.degraded_answers", count(st.degraded_answers), "count");
    put("serve.flush_retries", count(st.flush_retries), "count");
  }
  {
    QueryMix mix(served, opt.seed, 0);
    ServeConfig cfg;
    cfg.threads = kBuildThreads;
    cfg.seconds = opt.tiny ? 0.2 : kTracedServeSeconds;
    Span s(tracer, "serve.mixed_2threads");
    ServeStats st;
    serve_closed_loop(served, mix, cfg, tally, st);
    put("serve.qps_2threads", median(st.window_qps), "1/s");
  }
  const auto single_kind = [&](const char* span, xd::serve::QueryKind kind) {
    QueryMix mix(served, opt.seed, 0);
    ServeConfig cfg;
    cfg.seconds = opt.tiny ? 0.2 : kSingleKindSeconds;
    cfg.single_kind = true;
    cfg.kind = kind;
    Span s(tracer, span);
    ServeStats st;
    serve_closed_loop(served, mix, cfg, tally, st);
    return median(st.flush_us);
  };
  put("serve.flush_us.route",
      single_kind("serve.route_stream", xd::serve::QueryKind::kRoute), "us");
  put("serve.flush_us.lookup",
      single_kind("serve.lookup_stream", xd::serve::QueryKind::kComponentOf),
      "us");
  {
    // At the builds' thread count: with one thread run() is a plain loop.
    const xd::congest::EpochScheduler pool(kBuildThreads);
    std::vector<double> us;
    us.reserve(kEpochReps);
    Span s(tracer, "congest.epoch");
    for (int i = 0; i < kEpochReps; ++i) {
      const auto t0 = Clock::now();
      pool.run(static_cast<std::size_t>(kBuildThreads), [](std::size_t) {});
      us.push_back(seconds_since(t0) * 1e6);
    }
    s.stop();
    put("congest.epoch_us", median(us), "us");
  }

  fs::create_directories(opt.workdir.parent_path() / "traces");
  std::ofstream trace_out(opt.workdir.parent_path() / "traces" /
                          (trace_id + ".json"));
  tracer.write_json(trace_out);
}

}  // namespace xdbench
