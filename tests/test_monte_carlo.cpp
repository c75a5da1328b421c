#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <memory>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/guardband.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "timing/segments.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

namespace repro::core {
namespace {

struct Fixture {
  circuit::Netlist nl;
  circuit::GateLibrary lib;
  std::unique_ptr<timing::TimingGraph> tg;
  std::vector<timing::Path> paths;
  timing::SegmentDecomposition dec;
  std::unique_ptr<variation::SpatialModel> spatial;
  std::unique_ptr<variation::VariationModel> model;

  explicit Fixture(std::size_t max_paths = 80)
      : nl(circuit::generate_benchmark("s1196")) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = max_paths});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(*tg, *spatial, paths,
                                                        dec, variation::VariationOptions{});
  }
};

TEST(MonteCarlo, ExactPredictorHasNearZeroError) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(sel.rank());
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 500;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  EXPECT_LT(m.e1, 1e-6);
  EXPECT_LT(m.e2, 1e-6);
}

TEST(MonteCarlo, MetricsRelationships) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(std::max<std::size_t>(1, sel.rank() / 3));
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 1000;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  // e2 (mean of means) <= e1 (mean of maxima) <= worst_eps (max of maxima).
  EXPECT_LE(m.e2, m.e1);
  EXPECT_LE(m.e1, m.worst_eps + 1e-15);
  EXPECT_EQ(m.samples, 1000u);
  EXPECT_EQ(m.eps_max.size(), p.remaining.size());
  for (std::size_t i = 0; i < m.eps_max.size(); ++i) {
    EXPECT_LE(m.eps_mean[i], m.eps_max[i] + 1e-15);
    EXPECT_GE(m.eps_mean[i], 0.0);
  }
}

TEST(MonteCarlo, DeterministicForSeed) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 300;
  opt.seed = 77;
  const McMetrics m1 = evaluate_predictor(*f.model, p, opt);
  const McMetrics m2 = evaluate_predictor(*f.model, p, opt);
  EXPECT_DOUBLE_EQ(m1.e1, m2.e1);
  EXPECT_DOUBLE_EQ(m1.e2, m2.e2);
}

TEST(MonteCarlo, ChunkSizeDoesNotChangeResult) {
  Fixture f(40);
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(4);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions a;
  a.samples = 400;
  a.chunk = 64;
  const McMetrics ma = evaluate_predictor(*f.model, p, a);
  // Same seed stream, same sample count: chunking is an implementation
  // detail.  Every sample's error is summed in a fixed order, so the maxima
  // are exact; only the eps_mean sums regroup by chunk.
  for (std::size_t chunk : {1u, 37u, 400u, 1000u}) {
    McOptions b = a;
    b.chunk = chunk;
    const McMetrics mb = evaluate_predictor(*f.model, p, b);
    EXPECT_EQ(ma.e1, mb.e1) << "chunk " << chunk;
    EXPECT_EQ(ma.worst_eps, mb.worst_eps) << "chunk " << chunk;
    ASSERT_EQ(ma.eps_max.size(), mb.eps_max.size());
    for (std::size_t i = 0; i < ma.eps_max.size(); ++i) {
      EXPECT_EQ(ma.eps_max[i], mb.eps_max[i]) << "chunk " << chunk;
      EXPECT_NEAR(ma.eps_mean[i], mb.eps_mean[i], 1e-12);
    }
    EXPECT_NEAR(ma.e2, mb.e2, 1e-12);
  }
}

TEST(MonteCarlo, BitIdenticalAcrossThreadCounts) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 512;
  opt.chunk = 64;
  opt.seed = 123;
  const std::size_t saved_threads = util::thread_count();
  std::vector<McMetrics> runs;
  for (std::size_t nt : {1u, 4u, 8u}) {
    util::set_threads(nt);
    runs.push_back(evaluate_predictor(*f.model, p, opt));
  }
  util::set_threads(saved_threads);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    // Exact double equality: parallel sampling must be bit-identical.
    EXPECT_EQ(runs[0].e1, runs[k].e1);
    EXPECT_EQ(runs[0].e2, runs[k].e2);
    EXPECT_EQ(runs[0].worst_eps, runs[k].worst_eps);
    ASSERT_EQ(runs[0].eps_max.size(), runs[k].eps_max.size());
    for (std::size_t i = 0; i < runs[0].eps_max.size(); ++i) {
      EXPECT_EQ(runs[0].eps_max[i], runs[k].eps_max[i]);
      EXPECT_EQ(runs[0].eps_mean[i], runs[k].eps_mean[i]);
    }
  }
}

TEST(MonteCarlo, MoreRepresentativesLowerError) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  McOptions opt;
  opt.samples = 800;
  double prev_e2 = 1e9;
  for (std::size_t r : {3u, 8u, 20u}) {
    if (r > sel.rank()) break;
    const LinearPredictor p = make_path_predictor(
        f.model->a(), f.model->mu_paths(), sel.select(r));
    const McMetrics m = evaluate_predictor(*f.model, p, opt);
    EXPECT_LT(m.e2, prev_e2 + 1e-12);
    prev_e2 = m.e2;
  }
}

TEST(MonteCarlo, McErrorConsistentWithAnalyticSigma) {
  // The analytic error sigma and the observed mean absolute error relate by
  // E|N(0,s)| = s * sqrt(2/pi); check within MC tolerance for a few paths.
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(6);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const linalg::Vector sig = p.error_sigmas();
  McOptions opt;
  opt.samples = 4000;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sig.size()); ++i) {
    const double mu = p.mu_rem[i];
    const double expected_mean_rel =
        sig[i] * std::sqrt(2.0 / M_PI) / mu;  // delay ~ mu >> sigma
    if (expected_mean_rel < 1e-12) continue;
    EXPECT_NEAR(m.eps_mean[i], expected_mean_rel, 0.2 * expected_mean_rel);
  }
}

// The dense Monte-Carlo formula the sparse sampler replaced: the measured
// rows and the remaining rows of A stacked as dense matrices and multiplied
// as GEMMs over every parameter.  Sample j is drawn from
// util::Rng::stream(seed, j), or from `sequential` when given.
McMetrics dense_reference(const variation::VariationModel& model,
                          const LinearPredictor& p, std::size_t samples,
                          std::uint64_t seed, util::Rng* sequential) {
  const std::size_t m = model.num_params();
  linalg::Matrix meas(p.mu_meas.size(), m);
  std::size_t row = 0;
  for (int i : p.measured_paths) {
    meas.set_row(row++, model.a().row(static_cast<std::size_t>(i)));
  }
  for (int s : p.measured_segments) {
    meas.set_row(row++, model.sigma().row(static_cast<std::size_t>(s)));
  }
  linalg::Matrix x(m, samples);
  for (std::size_t j = 0; j < samples; ++j) {
    util::Rng stream = util::Rng::stream(seed, j);
    util::Rng& rng = sequential != nullptr ? *sequential : stream;
    for (std::size_t i = 0; i < m; ++i) x(i, j) = rng.normal();
  }
  const linalg::Matrix d =
      linalg::multiply(model.a().select_rows(p.remaining), x);
  const linalg::Matrix pred =
      linalg::multiply(p.coef, linalg::multiply(meas, x));
  McMetrics out;
  const std::size_t n_rem = p.remaining.size();
  out.eps_max.assign(n_rem, 0.0);
  out.eps_mean.assign(n_rem, 0.0);
  for (std::size_t i = 0; i < n_rem; ++i) {
    for (std::size_t j = 0; j < samples; ++j) {
      const double t = p.mu_rem[i] + d(i, j);
      const double rel = std::abs(p.mu_rem[i] + pred(i, j) - t) / std::abs(t);
      out.eps_max[i] = std::max(out.eps_max[i], rel);
      out.eps_mean[i] += rel;
    }
    out.eps_mean[i] /= static_cast<double>(samples);
    out.e1 += out.eps_max[i] / static_cast<double>(n_rem);
    out.e2 += out.eps_mean[i] / static_cast<double>(n_rem);
    out.worst_eps = std::max(out.worst_eps, out.eps_max[i]);
  }
  return out;
}

// Within 1e-12 relative, plus `noise` absolute: a path the measurements
// determine exactly has a relative error that is pure rounding of the
// delays (about 1e-16), which the summation order moves by its own size.
void expect_rel_near(double got, double want, const char* what,
                     double noise = 0.0) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want) + noise) << what;
}

void expect_matches_reference(const McMetrics& got, const McMetrics& want) {
  expect_rel_near(got.e1, want.e1, "e1");
  expect_rel_near(got.e2, want.e2, "e2");
  expect_rel_near(got.worst_eps, want.worst_eps, "worst_eps");
  ASSERT_EQ(got.eps_max.size(), want.eps_max.size());
  for (std::size_t i = 0; i < got.eps_max.size(); ++i) {
    expect_rel_near(got.eps_max[i], want.eps_max[i], "eps_max", 1e-14);
    expect_rel_near(got.eps_mean[i], want.eps_mean[i], "eps_mean", 1e-14);
  }
}

TEST(MonteCarlo, SparseSamplerMatchesDenseFormula) {
  Fixture f(200);
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  McOptions opt;
  opt.samples = 300;
  opt.chunk = 70;
  opt.seed = 21;
  const LinearPredictor paths_only = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.select(6));
  // A hybrid measurement set also reads rows of Sigma.
  std::vector<int> remaining;
  for (std::size_t i = 3; i < f.paths.size(); ++i) {
    remaining.push_back(static_cast<int>(i));
  }
  const LinearPredictor hybrid = make_joint_predictor(
      f.model->a(), f.model->mu_paths(), f.model->sigma(),
      f.model->mu_segments(), {0, 1, 2}, {0, 5, 9}, remaining);
  for (const LinearPredictor* p : {&paths_only, &hybrid}) {
    expect_matches_reference(
        evaluate_predictor(*f.model, *p, opt),
        dense_reference(*f.model, *p, opt.samples, opt.seed, nullptr));
    const GuardbandReport g = guardband_analysis(
        *f.model, *p, linalg::Vector(p->remaining.size(), 0.01),
        2.0 * f.model->mu_paths()[0], 0.05, opt);
    util::Rng rng(opt.seed);
    expect_matches_reference(
        g.mc, dense_reference(*f.model, *p, opt.samples, opt.seed, &rng));
  }
}

std::uint64_t counter_value(const char* name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(MonteCarlo, CountsSparseWorkAndNoGemm) {
  Fixture f;
  const SubsetSelector sel(f.model->a(), linalg::gram(f.model->a()));
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.select(5));
  std::size_t nnz = 0;
  for (const std::vector<int>* rows : {&p.measured_paths, &p.remaining}) {
    for (int i : *rows) {
      for (double v : f.model->a().row(static_cast<std::size_t>(i))) {
        nnz += v != 0.0 ? 1 : 0;
      }
    }
  }
  McOptions opt;
  opt.samples = 333;
  const std::uint64_t spmm = counter_value("linalg.spmm.flops");
  const std::uint64_t gemm = counter_value("linalg.gemm.flops");
  (void)evaluate_predictor(*f.model, p, opt);
  EXPECT_EQ(counter_value("linalg.spmm.flops") - spmm,
            2 * nnz * opt.samples);
  EXPECT_EQ(counter_value("linalg.gemm.flops"), gemm);
}

TEST(MonteCarlo, NoRemainingPathsThrows) {
  Fixture f(10);
  std::vector<int> all;
  for (std::size_t i = 0; i < f.paths.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), all);
  EXPECT_THROW((void)evaluate_predictor(*f.model, p, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
