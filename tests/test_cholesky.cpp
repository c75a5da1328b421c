#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <utility>

#include "linalg/gemm.h"
#include "linalg/simd/dispatch.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace repro::linalg {
namespace {

// Random SPD matrix: A = B B^T + n*I.
Matrix random_spd(std::size_t n, std::uint64_t seed, double ridge = 0.0) {
  util::Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix s = gram(b);
  for (std::size_t i = 0; i < n; ++i) s(i, i) += ridge;
  return s;
}

TEST(Cholesky, FactorReconstructs) {
  const Matrix s = random_spd(10, 1, 1.0);
  const CholFactors f = chol_factor(s);
  ASSERT_TRUE(f.ok);
  EXPECT_LT(max_abs_diff(multiply_bt(f.l, f.l), s), 1e-9);
}

TEST(Cholesky, UpperTriangleIsZero) {
  const CholFactors f = chol_factor(random_spd(6, 2, 1.0));
  ASSERT_TRUE(f.ok);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(f.l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, NotSquareThrows) {
  EXPECT_THROW((void)chol_factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteRejected) {
  Matrix s{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(chol_factor(s).ok);
}

TEST(Cholesky, SolveMatchesDirect) {
  const Matrix s = random_spd(15, 3, 2.0);
  util::Rng rng(33);
  Vector b(15);
  for (double& v : b) v = rng.normal();
  const CholFactors f = chol_factor(s);
  const Vector x = chol_solve(f, b);
  const Vector sx = matvec(s, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(sx[i], b[i], 1e-9);
}

TEST(Cholesky, ForwardBackwardComposition) {
  const Matrix s = random_spd(8, 4, 1.0);
  const CholFactors f = chol_factor(s);
  Vector b{1, 2, 3, 4, 5, 6, 7, 8};
  const Vector via_parts = chol_backward(f, chol_forward(f, b));
  const Vector direct = chol_solve(f, b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_parts[i], direct[i]);
  }
}

TEST(Cholesky, RegularizedHandlesSingular) {
  // Rank-1 PSD matrix: plain factorization fails, regularized succeeds with
  // a small jitter.
  Matrix s{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(chol_factor(s).ok);
  const RegularizedChol rc = chol_factor_regularized(s);
  EXPECT_TRUE(rc.factors.ok);
  EXPECT_GT(rc.jitter, 0.0);
  EXPECT_LT(rc.jitter, 1e-6);
}

TEST(Cholesky, RegularizedZeroJitterWhenSpd) {
  const Matrix s = random_spd(5, 6, 1.0);
  const RegularizedChol rc = chol_factor_regularized(s);
  EXPECT_TRUE(rc.factors.ok);
  EXPECT_DOUBLE_EQ(rc.jitter, 0.0);
}

TEST(Cholesky, RegularizedFarFromPsdThrows) {
  Matrix s{{-1.0, 0.0}, {0.0, -1.0}};
  EXPECT_THROW((void)chol_factor_regularized(s), std::runtime_error);
}

TEST(Cholesky, FactorReconstructsUnderEveryDispatchTier) {
  // n >= 32 so the SIMD tiers actually take the dispatched dot path.
  const std::string before = simd::tier_name(simd::active_tier());
  const Matrix s = random_spd(64, 14, 64.0);
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const CholFactors f = chol_factor(s);
    ASSERT_TRUE(f.ok) << simd::tier_name(t);
    EXPECT_LT(max_abs_diff(multiply_bt(f.l, f.l), s), 1e-8)
        << simd::tier_name(t);
  }
  simd::set_tier(before);
}

TEST(Cholesky, MultiRhsSolve) {
  const Matrix s = random_spd(7, 8, 1.0);
  const Matrix b = random_spd(7, 9, 0.5);
  const CholFactors f = chol_factor(s);
  const Matrix x = chol_solve(f, b);
  EXPECT_LT(max_abs_diff(multiply(s, x), b), 1e-8);
}

TEST(PivotedCholesky, RankColumnsReconstructAtEveryCapacity) {
  // L's column capacity grows in doublings from 64: ranks on, just past
  // and equal to a full capacity, and a full-rank matrix.
  for (const auto& [n, r] : {std::pair<std::size_t, std::size_t>{200, 64},
                             {200, 65},
                             {300, 128},
                             {96, 96}}) {
    util::Rng rng(n + r);
    Matrix f(n, r);
    for (double& v : f.data()) v = rng.normal();
    const Matrix w = gram(f);
    const PivotedChol pc = pivoted_cholesky(w);
    ASSERT_EQ(pc.rank, r);
    ASSERT_EQ(pc.l.rows(), n);
    ASSERT_EQ(pc.l.cols(), r);
    const Matrix llt = multiply_bt(pc.l, pc.l);
    const double tol = 1e-9 * w.max_abs();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const auto pi = static_cast<std::size_t>(pc.perm[i]);
        const auto pj = static_cast<std::size_t>(pc.perm[j]);
        EXPECT_NEAR(llt(i, j), w(pi, pj), tol);
      }
    }
  }
}

TEST(PivotedCholesky, BitIdenticalAcrossThreadCounts) {
  // W = B B^T of order 601 and rank 220: the per-pivot row updates go
  // through the pool from about pivot 120 on.  B has a zero row (a zero
  // diagonal that never pivots) and duplicated rows (equal diagonals).
  util::Rng rng(31);
  Matrix b(601, 220);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  }
  for (std::size_t j = 0; j < b.cols(); ++j) {
    b(4, j) = 0.0;
    b(9, j) = b(2, j);
    b(600, j) = b(2, j);
  }
  const Matrix w = gram(b);
  const PivotedChol p1 =
      test::with_threads(1, [&] { return pivoted_cholesky(w); });
  const PivotedChol p4 =
      test::with_threads(4, [&] { return pivoted_cholesky(w); });
  EXPECT_EQ(p1.rank, 220u);
  EXPECT_EQ(p1.l.rows(), 601u);
  EXPECT_EQ(p1.l.cols(), p1.rank);
  EXPECT_EQ(p1.rank, p4.rank);
  EXPECT_EQ(p1.perm, p4.perm);
  EXPECT_TRUE(test::same_bits(p1.l.data(), p4.l.data()));
}

}  // namespace
}  // namespace repro::linalg
