// Ablation C: the Section-4.4 clustering speedup.
//
// Compares direct Algorithm-1 selection against the sharded pipeline
// (spherical k-means plan, per-shard selection, merge, then a verify and
// repair pass over the full pool) for several shard counts: wall-clock
// time, selection size, achieved worst-case error, repair promotions and
// Monte-Carlo e1.  Sharding bounds the factorization cost by the shard size
// at the price of a somewhat different representative set.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/monte_carlo.h"
#include "core/panel_source.h"
#include "core/path_selection.h"
#include "core/sharded_selection.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/text.h"

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("ablation_clustering", argc, argv);
  const int scale = util::repro_scale_mode();
  const std::string bench = (scale == 2) ? "s9234" : "s1423";

  std::printf("=== Ablation C: sharded selection speedup (%s, eps = 5%%) "
              "===\n\n",
              bench.c_str());
  const core::Experiment e(core::default_experiment_config(bench));
  const auto& a = e.model().a();
  std::printf("|Ptar| = %zu, m = %zu\n\n", a.rows(), a.cols());

  util::TextTable table(
      {"method", "shards", "|Pr|", "eps_r%", "repairs", "e1%", "sec"});

  core::McOptions mc;
  mc.samples = core::default_mc_samples() / 2;

  double direct_secs = 0.0;
  std::size_t direct_pr = 0;
  {
    util::Stopwatch sw;
    const util::telemetry::Span span("bench.direct");
    core::PathSelectionOptions opt;
    opt.epsilon = 0.05;
    const core::PathSelectionResult direct =
        core::select_representative_paths(a, e.t_cons_ps(), opt);
    const double secs = sw.seconds();
    direct_secs = secs;
    direct_pr = direct.representatives.size();
    const core::LinearPredictor pred = core::make_path_predictor(
        a, e.model().mu_paths(), direct.representatives);
    const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
    table.add_row({"direct", "1", std::to_string(direct.representatives.size()),
                   util::fmt_percent(direct.eps_r, 2), "0",
                   util::fmt_percent(m.e1, 2), util::fmt_double(secs, 2)});
    std::fflush(stdout);
  }

  double best_sharded_secs = 0.0;
  double max_sharded_e1 = 0.0;
  bool all_tolerance_met = true;
  std::size_t sharded_runs = 0;
  const core::MatrixPanelSource source(a);
  for (std::size_t k : {2u, 4u, 8u, 16u}) {
    util::Stopwatch sw;
    const util::telemetry::Span span("bench.sharded");
    core::ShardedSelectionOptions sopt;
    sopt.num_shards = k;
    sopt.selection.epsilon = 0.05;
    const core::ShardedSelectionResult r =
        core::select_paths_sharded(source, e.t_cons_ps(), sopt);
    const double secs = sw.seconds();
    const core::LinearPredictor pred = core::make_path_predictor(
        a, e.model().mu_paths(), r.representatives);
    const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
    table.add_row({"sharded", std::to_string(r.shards),
                   std::to_string(r.representatives.size()),
                   util::fmt_percent(r.eps_r, 2),
                   std::to_string(r.repair_promotions),
                   util::fmt_percent(m.e1, 2), util::fmt_double(secs, 2)});
    if (sharded_runs == 0 || secs < best_sharded_secs) {
      best_sharded_secs = secs;
    }
    max_sharded_e1 = std::max(max_sharded_e1, m.e1);
    all_tolerance_met = all_tolerance_met && r.tolerance_met;
    ++sharded_runs;
    std::fflush(stdout);
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());
  h.metric("direct_pr", direct_pr);
  h.metric("direct_secs", direct_secs);
  h.metric("best_sharded_secs", best_sharded_secs);
  h.metric("sharded_runs", sharded_runs);
  h.metric("all_tolerance_met", all_tolerance_met);
  h.metric("max_sharded_e1", max_sharded_e1);
  return h.finish(sharded_runs > 0);
}
