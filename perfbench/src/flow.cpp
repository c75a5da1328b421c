// Flow workloads (flow_tall, flow_wide): the paper flow from netlist to a
// Monte-Carlo-verified predictor.  perfbench/README.md says why each
// workload uses the circuits it does.
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "circuit/gate_library.h"
#include "circuit/generator.h"
#include "circuit/placement.h"
#include "common.h"
#include "core/benchmarks.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "timing/path_enum.h"
#include "timing/segments.h"
#include "timing/sizing.h"
#include "timing/sta.h"
#include "timing/timing_graph.h"
#include "util/rng.h"
#include "variation/variation_model.h"

namespace perfbench {

namespace core = repro::core;
namespace util = repro::util;

namespace {

// Counters and span totals of traced flows, summed over circuits.
struct FlowTrace {
  double svd_s = 0, gram_s = 0, eig_capture_s = 0, select_self_s = 0;
  double svd_sweeps = 0, svd_route = 0, candidates = 0, syrk_flops = 0;
  double gemm_flops = 0, mc_gemm_flops = 0;
  double worker_chunks = 0, caller_chunks = 0;
  double predictor_s = 0, mc_s = 0;
};

struct FlowOut {
  core::PathSelectionResult selection;
  core::LinearPredictor predictor;
  core::McMetrics mc;
  double select_s = 0, predictor_s = 0, mc_s = 0;
  double total_s() const { return select_s + predictor_s + mc_s; }
};

// One circuit through default selection -> Theorem-2 predictor -> Monte
// Carlo check, each stage timed; `trace` (optional) collects telemetry.
FlowOut run_flow(const core::Experiment& e, const std::string& circuit,
                 std::uint64_t seed, FlowTrace* trace) {
  const auto& model = e.model();
  FlowOut out;
  TelemetryDelta all;
  TelemetryDelta sel;
  std::int64_t t0 = now_ns();
  out.selection = core::select_representative_paths(
      model.a(), e.t_cons_ps(), core::PathSelectionOptions{});
  out.select_s = seconds_since(t0);
  sel.stop();

  t0 = now_ns();
  out.predictor = core::make_path_predictor(model.a(), model.mu_paths(),
                                            out.selection.representatives);
  out.predictor_s = seconds_since(t0);

  core::McOptions mc;
  mc.seed = derived_seed(circuit, "mc", seed);
  TelemetryDelta mcd;
  t0 = now_ns();
  out.mc = core::evaluate_predictor(model, out.predictor, mc);
  out.mc_s = seconds_since(t0);
  mcd.stop();
  all.stop();

  if (trace != nullptr) {
    const double svd = sel.span_s("linalg.svd");
    const double gram = sel.span_s("core.select.gram");
    const double eig = sel.span_s("core.select.eig_capture");
    trace->svd_s += svd;
    trace->gram_s += gram;
    trace->eig_capture_s += eig;
    trace->select_self_s += out.select_s - svd - gram - eig;
    trace->svd_sweeps += all.counter("linalg.svd.sweeps");
    trace->svd_route += all.counter("core.select.svd_route");
    trace->candidates += all.counter("core.select.candidates");
    trace->syrk_flops += all.counter("linalg.syrk.flops");
    trace->gemm_flops += all.counter("linalg.gemm.flops");
    trace->mc_gemm_flops += mcd.counter("linalg.gemm.flops");
    trace->worker_chunks += all.counter("util.pool.chunks_by_workers");
    trace->caller_chunks += all.counter("util.pool.chunks_by_caller");
    trace->predictor_s += out.predictor_s;
    trace->mc_s += out.mc_s;
  }
  return out;
}

// The paper's guarantees on one circuit's flow output.
void check_flow(Result& result, const std::string& circuit,
                const core::Experiment& e, const FlowOut& f) {
  const double eps = core::PathSelectionOptions{}.epsilon;
  const auto& reps = f.selection.representatives;
  const std::size_t n = e.model().a().rows();
  std::set<int> seen;
  bool in_range = !reps.empty();
  for (int r : reps) {
    in_range = in_range && r >= 0 && static_cast<std::size_t>(r) < n &&
               seen.insert(r).second;
  }
  const bool tolerance = f.selection.eps_r <= eps ||
                         reps.size() == f.selection.exact_rank;
  const bool mc_ok = f.mc.e1 < eps;
  char what[256];
  std::snprintf(what, sizeof what,
                "%s flow: representatives unique/in range=%d, eps_r=%.5f "
                "(|Pr|=%zu, rank=%zu), MC e1=%.5f, eps=%.3f",
                circuit.c_str(), in_range, f.selection.eps_r, reps.size(),
                f.selection.exact_rank, f.mc.e1, eps);
  result.op(in_range && tolerance && mc_ok, what);
}

// setup_s is the median of at least kMinSetupReps set-ups, repeated while
// they total under kSetupBudgetS (cheap set-ups get more samples).
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 2.0;

// Library defaults throughout, including the placement seed (derived from
// the circuit name): the circuit instance is part of the workload, and the
// workload seed varies the Monte-Carlo samples.  perfbench/README.md gives
// the measured reason.
core::ExperimentConfig experiment_config(const std::string& circuit) {
  core::ExperimentConfig cfg;
  cfg.benchmark = circuit;
  return cfg;
}

// Replays the Experiment constructor's stages through their public entry
// points, timing each: a traced-run attribution of setup_s.
struct StageTimes {
  double generate = 0, graph = 0, yield = 0, enumerate = 0, model = 0;
};

void replay_stages(const core::Experiment& e, StageTimes& t) {
  namespace circuit = repro::circuit;
  namespace timing = repro::timing;
  const core::ExperimentConfig& cfg = e.config();
  // The placement seed as the Experiment constructor derives it.
  const std::uint64_t seed =
      cfg.seed != 0 ? cfg.seed : util::Rng::seed_from(cfg.benchmark, 42);
  std::int64_t t0 = now_ns();
  circuit::Netlist netlist = circuit::generate_benchmark(cfg.benchmark);
  circuit::PlacementOptions popt;
  popt.seed = seed ^ 0x9e37;
  circuit::place(netlist, popt);
  t.generate += seconds_since(t0);

  t0 = now_ns();
  const circuit::GateLibrary library;
  timing::TimingGraph graph(netlist, library);
  if (cfg.emulate_synthesis) timing::emulate_area_recovery(graph);
  const timing::StaResult sta = timing::run_sta(graph);
  t.graph += seconds_since(t0);

  t0 = now_ns();
  core::estimate_circuit_yield(graph, e.spatial(),
                               sta.circuit_delay * cfg.tcons_factor,
                               cfg.yield_mc_samples, seed ^ 0xA0,
                               cfg.random_scale);
  t.yield += seconds_since(t0);

  t0 = now_ns();
  timing::PathEnumOptions eopt;
  eopt.max_paths = cfg.max_candidates;
  eopt.sigma_weight = cfg.enum_sigma_weight;
  const auto coverage = timing::worst_path_through_each_gate(graph, eopt);
  const auto extra = timing::enumerate_worst_paths_per_endpoint(graph, eopt);
  t.enumerate += seconds_since(t0);

  t0 = now_ns();
  const timing::SegmentDecomposition segments =
      timing::extract_segments(e.netlist(), e.target_paths());
  repro::variation::VariationOptions vopt;
  vopt.random_scale = cfg.random_scale;
  const repro::variation::VariationModel model(
      e.graph(), e.spatial(), e.target_paths(), segments, vopt);
  t.model += seconds_since(t0);
}

}  // namespace

int run_flow(const Args& args, const std::vector<std::string>& circuits) {
  Result result;

  // ---- set-up: netlist -> placement -> STA -> paths -> sensitivity model
  std::vector<std::unique_ptr<core::Experiment>> experiments;
  std::vector<double> setup_samples;
  TelemetryDelta setup_delta;
  double setup_total = 0.0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total < kSetupBudgetS);
       ++rep) {
    experiments.clear();
    setup_delta = TelemetryDelta();
    const std::int64_t t0 = now_ns();
    for (const std::string& c : circuits) {
      experiments.push_back(
          std::make_unique<core::Experiment>(experiment_config(c)));
    }
    setup_samples.push_back(seconds_since(t0));
    setup_total += setup_samples.back();
    setup_delta.stop();
  }
  const double setup_last_s = setup_samples.back();
  double params = 0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const auto& a = experiments[i]->model().a();
    params += static_cast<double>(a.cols());
    std::printf("%s: %zu target paths x %zu parameters\n",
                circuits[i].c_str(), a.rows(), a.cols());
  }

  StageTimes stages;
  if (args.trace) {
    for (const auto& e : experiments) replay_stages(*e, stages);
  }

  // ---- timed window: one flow per circuit in turn, every circuit at least
  // once, until --seconds have passed; work_s sums per-circuit medians.
  std::vector<FlowOut> outs(circuits.size());
  std::vector<std::vector<double>> samples(circuits.size());
  const std::int64_t window = now_ns();
  for (std::size_t k = 0;
       k < circuits.size() || seconds_since(window) < args.seconds; ++k) {
    const std::size_t i = k % circuits.size();
    outs[i] = run_flow(*experiments[i], circuits[i], args.seed, nullptr);
    check_flow(result, circuits[i], *experiments[i], outs[i]);
    samples[i].push_back(outs[i].total_s());
  }
  double flow_s = 0, rep_paths = 0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    flow_s += median(samples[i]);
    rep_paths += static_cast<double>(outs[i].selection.representatives.size());
    std::printf("%s: %zu flow(s), median %.3f s, |Pr| %zu; flows (s):",
                circuits[i].c_str(), samples[i].size(), median(samples[i]),
                outs[i].selection.representatives.size());
    for (double t : samples[i]) std::printf(" %.3f", t);
    std::printf("\n");
  }

  if (!args.trace) {
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("work_s", flow_s, "s");
    result.metric("rep_paths", rep_paths, "count");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.print_json();
    return 0;
  }

  // ---- traced flow iteration: per-stage telemetry deltas
  FlowTrace trace;
  double traced_flow_s = 0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    outs[i] = run_flow(*experiments[i], circuits[i], args.seed, &trace);
    check_flow(result, circuits[i], *experiments[i], outs[i]);
    traced_flow_s += outs[i].total_s();
  }
  const double stage_sum = stages.generate + stages.graph + stages.yield +
                           stages.enumerate + stages.model;

  LayerTable table;
  table.row("circuit", "circuit.generate_s", stages.generate);
  table.row("timing", "timing.graph_s", stages.graph);
  table.row("core", "core.yield_s", stages.yield);
  table.row("timing", "timing.enum_s", stages.enumerate);
  table.row("variation", "variation.model_s", stages.model);
  table.row("linalg", "linalg.gram_s", trace.gram_s);
  table.row("linalg", "linalg.svd_s", trace.svd_s);
  table.row("core", "core.eig_capture_s", trace.eig_capture_s);
  table.row("core", "core.select_s (self)", trace.select_self_s);
  table.row("core", "core.predictor_s", trace.predictor_s);
  table.row("core", "core.mc_s (incl. GEMM)", trace.mc_s);
  table.print(args.workload + ": set-up (last repetition) + traced flow",
              setup_last_s + traced_flow_s);
  std::printf("  untraced: setup_s=%.4f work_s=%.4f rep_paths=%.0f; "
              "traced flow=%.4f s; trace_overhead=%.4f\n",
              median(setup_samples), flow_s, rep_paths, traced_flow_s,
              traced_flow_s / flow_s);

  const double chunks = trace.worker_chunks + trace.caller_chunks;
  const std::map<std::string, double> values = {
      {"circuit.generate_s", stages.generate},
      {"timing.graph_s", stages.graph},
      {"timing.enum_s", stages.enumerate},
      {"timing.paths_enumerated",
       setup_delta.counter("timing.paths_enumerated")},
      {"core.yield_s", stages.yield},
      {"variation.model_s", stages.model},
      {"variation.params", params},
      {"unattributed_s", setup_last_s - stage_sum},
      {"linalg.svd_s", trace.svd_s},
      {"linalg.svd.sweeps", trace.svd_sweeps},
      {"core.select.svd_route", trace.svd_route},
      {"core.select_s", trace.select_self_s},
      {"core.eig_capture_s", trace.eig_capture_s},
      {"core.select.candidates", trace.candidates},
      {"linalg.gram_s", trace.gram_s},
      {"linalg.syrk.flops", trace.syrk_flops},
      {"core.mc_s", trace.mc_s},
      {"linalg.gemm.flops", trace.gemm_flops},
      {"linalg.gemm.gflops",
       trace.mc_s > 0 ? trace.mc_gemm_flops / trace.mc_s * 1e-9 : 0},
      {"util.pool.worker_share", chunks > 0 ? trace.worker_chunks / chunks : 0},
      {"core.predictor_s", trace.predictor_s},
      {"trace_overhead", traced_flow_s / flow_s},
  };
  emit_per_layer(result, values);
  result.print_json();
  return 0;
}

}  // namespace perfbench
