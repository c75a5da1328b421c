#include "core/subset_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "core/benchmarks.h"
#include "core/effective_rank.h"
#include "core/error_model.h"
#include "core/path_selection.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "svd_oracle.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

std::uint64_t counter_value(const char* name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Low-rank matrix with known rank.
linalg::Matrix low_rank(std::size_t r, std::size_t c, std::size_t rank,
                        std::uint64_t seed) {
  return linalg::multiply(random_matrix(r, rank, seed),
                          random_matrix(rank, c, seed + 1));
}

// The production selector: the Gram route, given W = A A^T.
SubsetSelector via_gram(const linalg::Matrix& a) {
  return SubsetSelector(a, linalg::gram(a));
}

// The paper-reference selector: Algorithm 2 on a dense SVD of A.
test::SvdSelector oracle(const linalg::Matrix& a) {
  return test::SvdSelector(a);
}

// A = U diag(s) V^T with random orthonormal U (rows x k) and V (cols x k),
// k = s.size(): a matrix whose nonzero singular values are exactly `s`.
linalg::Matrix with_spectrum(std::size_t rows, std::size_t cols,
                             const std::vector<double>& s,
                             std::uint64_t seed) {
  const std::size_t k = s.size();
  linalg::Matrix u =
      linalg::qr_thin_q(linalg::qr_factor(random_matrix(rows, k, seed)));
  const linalg::Matrix v =
      linalg::qr_thin_q(linalg::qr_factor(random_matrix(cols, k, seed + 1)));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < k; ++j) u(i, j) *= s[j];
  }
  return linalg::multiply_bt(u, v);
}

// k singular values falling geometrically from 1 to `smallest`.
std::vector<double> geometric(std::size_t k, double smallest) {
  std::vector<double> s(k);
  for (std::size_t j = 0; j < k; ++j) {
    s[j] = std::pow(smallest, static_cast<double>(j) /
                                  static_cast<double>(k - 1));
  }
  return s;
}

// A timing constraint at which leaving any single path unmeasured costs at
// most 25 % (kappa = 3), so eps = 5 % selections are non-trivial.
double loose_t_cons(const linalg::Matrix& a) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    worst = std::max(worst, linalg::norm2(a.row(i)));
  }
  return 3.0 * worst / 0.25;
}

// Identical rows of A are interchangeable representatives (a QRCP tie
// between them is broken by rounding), so selections are compared after
// mapping every row to the first row equal to it.
std::vector<int> canonical_rows(const linalg::Matrix& a,
                                const std::vector<int>& rows) {
  std::vector<int> out;
  out.reserve(rows.size());
  for (int i : rows) {
    const auto row_i = a.row(static_cast<std::size_t>(i));
    int first = i;
    for (int j = 0; j < i; ++j) {
      const auto row_j = a.row(static_cast<std::size_t>(j));
      if (std::equal(row_i.begin(), row_i.end(), row_j.begin())) {
        first = j;
        break;
      }
    }
    out.push_back(first);
  }
  return out;
}

// Whether a Gram-route selection matches the oracle's at the same size:
// the same rows, or — with `ties` — rows that leave the same eps_r.
// Circuit pools hold distinct paths that are interchangeable within
// span(U_r) (the QRCP tie is then broken by rounding on either route); at
// r = rank both errors are rounding-level zero (Theorem 1).
void expect_same_selection(const linalg::Matrix& a, const linalg::Matrix& w,
                           const std::vector<int>& got,
                           const std::vector<int>& want, std::size_t rank,
                           double t_cons, bool ties) {
  if (canonical_rows(a, got) == canonical_rows(a, want)) return;
  ASSERT_TRUE(ties) << "pivots differ at r = " << got.size();
  const double eps_got = selection_errors_from_gram(w, got, t_cons, 3.0).eps_r;
  const double eps_want =
      selection_errors_from_gram(w, want, t_cons, 3.0).eps_r;
  if (got.size() == rank) {
    EXPECT_LT(eps_got, 1e-6);
    EXPECT_LT(eps_want, 1e-6);
  } else {
    EXPECT_NEAR(eps_got, eps_want, 1e-12) << "r = " << got.size();
  }
}

// The Gram route against the SVD oracle: same rank and the same QRCP pivots
// at every r — everything Algorithm 1 reads from a selector — and an
// Algorithm-1 result under both QRCP drivers that the oracle would select
// at its size.  The pivots are probed from r = rank down, as the linear
// driver does, so the lazy route captures once with its full oversampling
// margin.
void expect_matches_oracle(const linalg::Matrix& a, double t_cons,
                           bool ties = false) {
  const linalg::Matrix w = linalg::gram(a);
  const test::SvdSelector ref = oracle(a);
  const SubsetSelector sel(a, w);
  ASSERT_EQ(sel.rank(), ref.rank());
  for (std::size_t r = ref.rank(); r >= 1; --r) {
    expect_same_selection(a, w, sel.select(r), ref.select(r), ref.rank(),
                          t_cons, ties);
  }
  for (SelectionStrategy strategy :
       {SelectionStrategy::kBisection, SelectionStrategy::kLinearDecrement}) {
    PathSelectionOptions opt;
    opt.strategy = strategy;
    const PathSelectionResult got =
        select_representative_paths(SubsetSelector(a, w), w, t_cons, opt);
    EXPECT_EQ(got.exact_rank, ref.rank());
    expect_same_selection(a, w, got.representatives,
                          ref.select(got.representatives.size()), ref.rank(),
                          t_cons, ties);
  }
}

TEST(SubsetSelect, RankMatchesSvd) {
  const linalg::Matrix a = low_rank(30, 20, 7, 1);
  const SubsetSelector sel = via_gram(a);
  EXPECT_EQ(sel.rank(), 7u);
  EXPECT_EQ(sel.rank(), oracle(a).rank());
}

TEST(SubsetSelect, SelectedIndicesValidAndDistinct) {
  const linalg::Matrix a = random_matrix(25, 10, 2);
  const SubsetSelector sel = via_gram(a);
  for (std::size_t r = 1; r <= sel.rank(); ++r) {
    const auto idx = sel.select(r);
    EXPECT_EQ(idx.size(), r);
    std::set<int> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), r);
    for (int i : idx) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 25);
    }
  }
}

TEST(SubsetSelect, BadRThrows) {
  const SubsetSelector sel = via_gram(random_matrix(10, 5, 3));
  EXPECT_THROW((void)sel.select(0), std::invalid_argument);
  EXPECT_THROW((void)sel.select(6), std::invalid_argument);
}

TEST(SubsetSelect, ExactSelectionSpansRowSpace) {
  // Theorem 1: r = rank(A) selected rows let every other row be written as
  // their linear combination.
  const linalg::Matrix a = low_rank(40, 25, 6, 4);
  const SubsetSelector sel = via_gram(a);
  ASSERT_EQ(sel.rank(), 6u);
  const auto rep = sel.select(6);
  const linalg::Matrix a_r = a.select_rows(rep);
  // Every row of A projected onto span(rows of A_r) must come back whole:
  // the coefficients solve (A_r A_r^T) C = A_r A^T, and A = C^T A_r.
  const linalg::Matrix coeffs =
      linalg::spd_solve(linalg::gram(a_r), linalg::multiply_bt(a_r, a));
  const linalg::Matrix recon = linalg::multiply_at(coeffs, a_r);
  EXPECT_LT(linalg::max_abs_diff(recon, a), 1e-8);
}

TEST(SubsetSelect, SelectedRowsAreIndependent) {
  const linalg::Matrix a = random_matrix(30, 12, 5);
  const SubsetSelector sel = via_gram(a);
  const auto rep = sel.select(sel.rank());
  EXPECT_EQ(oracle(a.select_rows(rep)).rank(), sel.rank());
}

TEST(SubsetSelect, PivotOrderPrefersDominantRows) {
  // One row has a huge norm along the dominant direction; it must be the
  // first pivot.
  linalg::Matrix a = random_matrix(12, 6, 6);
  for (std::size_t j = 0; j < 6; ++j) a(4, j) *= 50.0;
  const SubsetSelector sel = via_gram(a);
  const auto rep = sel.select(3);
  EXPECT_EQ(rep.front(), 4);
}

TEST(SubsetSelect, DuplicatedRowsNotBothSelected) {
  linalg::Matrix a = random_matrix(10, 8, 7);
  a.set_row(3, a.row(2));  // duplicate rows 2 and 3
  const SubsetSelector sel = via_gram(a);
  const auto rep = sel.select(5);
  const bool has2 = std::count(rep.begin(), rep.end(), 2) > 0;
  const bool has3 = std::count(rep.begin(), rep.end(), 3) > 0;
  EXPECT_FALSE(has2 && has3);
}

TEST(SubsetSelect, GramRouteMatchesSvdRank) {
  const linalg::Matrix a = low_rank(40, 30, 8, 21);
  const linalg::Matrix w = linalg::gram(a);
  const test::SvdSelector direct = oracle(a);
  const SubsetSelector gram_side(a, w);
  EXPECT_EQ(gram_side.rank(), direct.rank());
  // Singular values agree to Gram precision.
  for (std::size_t k = 0; k < direct.rank(); ++k) {
    EXPECT_NEAR(gram_side.singular_values()[k], direct.singular_values()[k],
                1e-6 * (1.0 + direct.singular_values()[0]));
  }
}

TEST(SubsetSelect, GramRouteSelectionSpansSameError) {
  // The two routes may pick different rows (sign/order freedom in U), but
  // the induced prediction error must match at every r.
  const linalg::Matrix a = low_rank(35, 25, 6, 23);
  const linalg::Matrix w = linalg::gram(a);
  const test::SvdSelector direct = oracle(a);
  const SubsetSelector gram_side(a, w);
  for (std::size_t r : {2u, 4u, 6u}) {
    const auto sel_d = direct.select(r);
    const auto sel_g = gram_side.select(r);
    const auto err_d = selection_errors_from_gram(w, sel_d, 1000.0, 3.0);
    const auto err_g = selection_errors_from_gram(w, sel_g, 1000.0, 3.0);
    EXPECT_NEAR(err_d.eps_r, err_g.eps_r, 0.3 * (err_d.eps_r + 1e-6) + 1e-9);
  }
}

TEST(SubsetSelect, GreedySelectValidAndDistinct) {
  const linalg::Matrix a = random_matrix(30, 18, 25);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  const auto rep = sel.select_greedy(10, w);
  EXPECT_EQ(rep.size(), 10u);
  std::set<int> uniq(rep.begin(), rep.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(SubsetSelect, GreedyPrefixesNested) {
  const linalg::Matrix a = random_matrix(25, 15, 26);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  const auto r5 = sel.select_greedy(5, w);
  const auto r9 = sel.select_greedy(9, w);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r5[i], r9[i]);
}

TEST(SubsetSelect, GreedyWorksOnTallAndWideInput) {
  // Both Gram sides pivot on the caller's W: the greedy order is the
  // pivoted-Cholesky order of W whichever side the selector factored.
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{40, 12},
                                   {12, 40}}) {
    const linalg::Matrix a = random_matrix(rows, cols, 27);
    const linalg::Matrix w = linalg::gram(a);
    const SubsetSelector sel(a, w);
    const linalg::PivotedChol pc = linalg::pivoted_cholesky(w);
    const auto rep = sel.select_greedy(sel.rank(), w);
    ASSERT_EQ(rep.size(), std::min(rows, cols));
    for (std::size_t k = 0; k < rep.size(); ++k) EXPECT_EQ(rep[k], pc.perm[k]);
    EXPECT_THROW((void)sel.select_greedy(0, w), std::invalid_argument);
  }
}

TEST(SubsetSelect, GreedyErrorComparableToAlg2) {
  // Greedy is a different heuristic but must be in the same quality class.
  const linalg::Matrix a = low_rank(60, 40, 10, 28);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  for (std::size_t r : {4u, 8u}) {
    const auto e_alg2 =
        selection_errors_from_gram(w, sel.select(r), 1000.0, 3.0);
    const auto e_greedy =
        selection_errors_from_gram(w, sel.select_greedy(r, w), 1000.0, 3.0);
    EXPECT_LT(e_greedy.eps_r, 5.0 * e_alg2.eps_r + 1e-6);
  }
}

TEST(SubsetSelect, SelectMemoizesPerR) {
  // Bisection probes revisit candidate sizes; repeated select(r) must not
  // rerun the QR column pivoting (regression for the per-probe waste).
  const linalg::Matrix a = random_matrix(22, 14, 30);
  const SubsetSelector sel = via_gram(a);
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  const auto first = sel.select(6);
  const std::uint64_t after_first = counter_value("linalg.qr_colpivot.calls");
  EXPECT_EQ(after_first, 1u);
  const auto again = sel.select(6);
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first);
  EXPECT_EQ(again, first);
  (void)sel.select(4);  // a new r pays exactly one more factorization
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first + 1);
  (void)sel.select(6);  // the old memo entry survives
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first + 1);
  util::telemetry::reset();
  util::telemetry::set_enabled(was_enabled);
}

TEST(SubsetSelect, GreedyOrderFromExternalGram) {
  // The dense tall route factors C = A^T A and holds no pivot order of W:
  // greedy_order must factor the caller-supplied Gram and match the
  // pivoted-Cholesky order directly.
  const linalg::Matrix a = random_matrix(18, 10, 31);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel = via_gram(a);
  const std::vector<int>& order = sel.greedy_order(w);
  EXPECT_EQ(order.size(), 18u);
  const linalg::PivotedChol pc = linalg::pivoted_cholesky(w);
  for (std::size_t k = 0; k < pc.rank; ++k) EXPECT_EQ(order[k], pc.perm[k]);
  // Cached: the second call returns the same object.
  EXPECT_EQ(&sel.greedy_order(w), &order);
  // A mis-sized Gram is rejected.
  EXPECT_THROW((void)via_gram(a).greedy_order(linalg::Matrix(4, 4)),
               std::invalid_argument);
}

TEST(SubsetSelect, SmallSideRouteMatchesSvdOracle) {
  // Tall inputs factor C = A^T A: densely up to order 512 (the first two),
  // by pivoted Cholesky plus lazy randomized capture above (the third).
  // Wide inputs keep the W = A A^T route (the fourth).
  for (const linalg::Matrix& a :
       {with_spectrum(120, 40, geometric(12, 1e-2), 41),
        with_spectrum(200, 60, geometric(60, 1e-4), 42),
        with_spectrum(600, 530, geometric(40, 1e-3), 43),
        with_spectrum(30, 50, geometric(10, 1e-2), 44)}) {
    SCOPED_TRACE(a.shape_string());
    expect_matches_oracle(a, loose_t_cons(a));
  }
}

TEST(SubsetSelect, AscendingProbesMatchSvdOracle) {
  // Probing r = 1, 2, ... grows the lazy tall route's sketch step by step.
  // Each probe must be served from vectors that a fresh sketch holds with
  // its full oversampling margin, never from an earlier sketch's last and
  // least accurate columns, so every r gives the oracle's pivots.
  const linalg::Matrix a = with_spectrum(600, 530, geometric(40, 1e-3), 43);
  const test::SvdSelector ref = oracle(a);
  const SubsetSelector sel = via_gram(a);
  ASSERT_EQ(sel.rank(), ref.rank());
  for (std::size_t r = 1; r <= ref.rank(); ++r) {
    EXPECT_EQ(canonical_rows(a, sel.select(r)),
              canonical_rows(a, ref.select(r)))
        << "r = " << r;
  }
}

TEST(SubsetSelect, GramRankMatchesSelectorRank) {
  // gram_rank() is the lazy route's rank rule on the smaller Gram side; on
  // these well-separated spectra it also matches the dense routes and the
  // SVD oracle.
  for (const linalg::Matrix& a :
       {with_spectrum(600, 530, geometric(40, 1e-3), 43),
        with_spectrum(520, 600, geometric(30, 1e-3), 45),
        with_spectrum(120, 40, geometric(12, 1e-2), 41),
        with_spectrum(30, 50, geometric(10, 1e-2), 44)}) {
    SCOPED_TRACE(a.shape_string());
    EXPECT_EQ(gram_rank(a), via_gram(a).rank());
    EXPECT_EQ(gram_rank(a), oracle(a).rank());
  }
}

TEST(SubsetSelect, SmallSideRouteMatchesSvdOracleOnS1196) {
  ExperimentConfig cfg = default_experiment_config("s1196");
  cfg.max_target_paths = 400;
  cfg.max_candidates = 4000;
  cfg.yield_mc_samples = 300;
  const Experiment e(cfg);
  const linalg::Matrix& a = e.model().a();
  ASSERT_GT(a.rows(), a.cols());  // the C = A^T A side
  expect_matches_oracle(a, e.t_cons_ps(), /*ties=*/true);
}

// Values beyond rank() are exactly zero, as the header promises.
void expect_zero_beyond_rank(const SubsetSelector& sel) {
  const linalg::Vector& s = sel.singular_values();
  for (std::size_t k = 0; k < s.size(); ++k) {
    if (k < sel.rank()) {
      EXPECT_GT(s[k], 0.0) << "k = " << k;
    } else {
      EXPECT_EQ(s[k], 0.0) << "k = " << k;
    }
  }
}

TEST(SubsetSelect, GramSpectrumMatchesSvdOracle) {
  // Figure 2's spectrum comes from the smaller Gram side with the tau cut.
  // On a tall pool (the C = A^T A side) and a wide one (W = A A^T) it must
  // give the oracle's rank and effective ranks and its leading values, and
  // be bit for bit the spectrum the dense selector route stores.
  struct Pool {
    const char* bench;
    std::size_t paths;
    bool tall;
  };
  for (const Pool pool : {Pool{"s1196", 600, true}, Pool{"s1423", 200, false}}) {
    SCOPED_TRACE(pool.bench);
    ExperimentConfig cfg = default_experiment_config(pool.bench);
    cfg.max_target_paths = pool.paths;
    cfg.max_candidates = 4000;
    cfg.yield_mc_samples = 300;
    const Experiment e(cfg);
    const linalg::Matrix& a = e.model().a();
    ASSERT_EQ(a.rows() > a.cols(), pool.tall) << a.shape_string();

    const linalg::Vector got = gram_singular_values(a);
    const test::SvdResult ref = test::svd(a, /*want_uv=*/false);
    ASSERT_TRUE(ref.converged);
    ASSERT_EQ(got.size(), ref.s.size());
    const std::size_t nonzero = static_cast<std::size_t>(
        std::count_if(got.begin(), got.end(), [](double v) { return v != 0.0; }));
    EXPECT_EQ(nonzero, test::svd_rank(ref, a.rows(), a.cols()));
    for (double eta : {0.05, 0.01}) {
      EXPECT_EQ(effective_rank(got, eta), effective_rank(ref.s, eta))
          << "eta = " << eta;
    }
    for (std::size_t k = 0; k < got.size() && ref.s[k] > 1e-2 * ref.s[0];
         ++k) {
      EXPECT_NEAR(got[k], ref.s[k], 1e-9 * ref.s[k]) << "k = " << k;
    }

    const SubsetSelector sel = via_gram(a);
    EXPECT_EQ(sel.rank(), nonzero);
    EXPECT_TRUE(test::same_bits(sel.singular_values(), got));
    expect_zero_beyond_rank(sel);
  }
  // The lazy route (Gram side of order > 512) zeroes its captured tail too.
  const SubsetSelector lazy =
      via_gram(with_spectrum(600, 530, geometric(40, 1e-3), 43));
  ASSERT_EQ(lazy.rank(), 40u);
  expect_zero_beyond_rank(lazy);
}

TEST(SubsetSelect, ConditioningEnvelope) {
  // Forming a Gram squares kappa(A).  Tall inputs with duplicate, zero,
  // scaled and near-collinear rows and sigma_min / sigma_max from 1e-2 to
  // 1e-12: the selection stays valid, and the rank equals the SVD rank
  // whenever every nonzero singular value lies above
  // tau = 4 sqrt(max(n, m) eps) sigma_0, and never exceeds it otherwise.
  constexpr std::size_t n = 90, m = 30;
  const double tau_rel =
      4.0 * std::sqrt(static_cast<double>(std::max(n, m)) *
                      std::numeric_limits<double>::epsilon());
  enum Kind { kPlain, kDuplicate, kZero, kScaled, kNearCollinear, kAlmostEqual };
  std::uint64_t seed = 60;
  for (double kappa : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12}) {
    for (Kind kind : {kPlain, kDuplicate, kZero, kScaled, kNearCollinear,
                      kAlmostEqual}) {
      SCOPED_TRACE("kappa " + std::to_string(kappa) + " kind " +
                   std::to_string(kind));
      linalg::Matrix a = with_spectrum(n, m, geometric(10, kappa), ++seed);
      util::Rng rng(seed);
      auto perturb_row = [&](std::size_t dst, std::size_t src, double delta) {
        for (std::size_t j = 0; j < m; ++j) {
          a(dst, j) = a(src, j) + delta * rng.normal();
        }
      };
      switch (kind) {
        case kPlain:
          break;
        case kDuplicate:
          a.set_row(7, a.row(3));
          a.set_row(50, a.row(3));
          break;
        case kZero:
          for (std::size_t j = 0; j < m; ++j) a(11, j) = a(12, j) = 0.0;
          break;
        case kScaled:
          for (std::size_t j = 0; j < m; ++j) a(20, j) = 1e3 * a(5, j);
          break;
        case kNearCollinear:  // a direction far below tau
          perturb_row(30, 8, 1e-9);
          break;
        case kAlmostEqual:  // a direction far above tau
          perturb_row(30, 8, 1e-3);
          break;
      }
      const test::SvdSelector ref = oracle(a);
      const linalg::Matrix w = linalg::gram(a);
      const SubsetSelector sel(a, w);
      const linalg::Vector& s = ref.singular_values();
      const double smallest = s[ref.rank() - 1] / s[0];
      if (smallest > tau_rel) {
        EXPECT_EQ(sel.rank(), ref.rank()) << "sigma_min/sigma_0 " << smallest;
      } else {
        EXPECT_LE(sel.rank(), ref.rank()) << "sigma_min/sigma_0 " << smallest;
      }
      const auto all = sel.select(sel.rank());
      EXPECT_EQ(std::set<int>(all.begin(), all.end()).size(), all.size());

      PathSelectionOptions opt;
      const PathSelectionResult res =
          select_representative_paths(a, loose_t_cons(a), opt, &w);
      const std::set<int> uniq(res.representatives.begin(),
                               res.representatives.end());
      EXPECT_EQ(uniq.size(), res.representatives.size());
      for (int i : res.representatives) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, static_cast<int>(n));
      }
      EXPECT_TRUE(res.eps_r <= opt.epsilon ||
                  res.representatives.size() == res.exact_rank)
          << "eps_r " << res.eps_r << " |Pr| " << res.representatives.size();
    }
  }
}

}  // namespace
}  // namespace repro::core
