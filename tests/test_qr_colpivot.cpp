#include "linalg/qr_colpivot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "linalg/gemm.h"
#include "linalg/solve.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace repro::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

TEST(Qrcp, PermIsValidPermutation) {
  const QrcpResult f = qr_colpivot(random_matrix(8, 12, 1));
  std::vector<int> p = f.perm;
  std::sort(p.begin(), p.end());
  std::vector<int> expect(12);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(p, expect);
}

TEST(Qrcp, RDiagonalNonIncreasing) {
  const QrcpResult f = qr_colpivot(random_matrix(30, 20, 2));
  for (std::size_t k = 1; k < f.rdiag_abs.size(); ++k) {
    // Pivoting guarantees a (nearly) non-increasing diagonal; allow tiny
    // numerical wiggle.
    EXPECT_LE(f.rdiag_abs[k], f.rdiag_abs[k - 1] * (1.0 + 1e-10));
  }
}

TEST(Qrcp, FirstPivotIsLargestColumn) {
  Matrix a(5, 3);
  // Column 1 has clearly the largest norm.
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = 0.1;
    a(i, 1) = 10.0;
    a(i, 2) = 1.0;
  }
  const QrcpResult f = qr_colpivot(a);
  EXPECT_EQ(f.perm[0], 1);
}

TEST(Qrcp, FullRankDetected) {
  const QrcpResult f = qr_colpivot(random_matrix(10, 6, 3));
  EXPECT_EQ(qrcp_rank(f), 6u);
}

TEST(Qrcp, RankDeficiencyDetected) {
  // Build a 10x6 matrix of rank 3: product of 10x3 and 3x6.
  const Matrix b = random_matrix(10, 3, 4);
  const Matrix c = random_matrix(3, 6, 5);
  const QrcpResult f = qr_colpivot(multiply(b, c));
  EXPECT_EQ(qrcp_rank(f), 3u);
}

TEST(Qrcp, ZeroMatrixHasRankZero) {
  const QrcpResult f = qr_colpivot(Matrix(4, 4));
  EXPECT_EQ(qrcp_rank(f), 0u);
}

TEST(Qrcp, MaxStepsLimitsWork) {
  const QrcpResult f = qr_colpivot(random_matrix(20, 20, 6), 5);
  EXPECT_EQ(f.tau.size(), 5u);
  EXPECT_EQ(f.rdiag_abs.size(), 5u);
  // perm still covers all columns.
  EXPECT_EQ(f.perm.size(), 20u);
}

TEST(Qrcp, ExplicitToleranceRank) {
  Matrix a = Matrix::identity(4);
  a(3, 3) = 1e-9;
  const QrcpResult f = qr_colpivot(a);
  EXPECT_EQ(qrcp_rank(f, 1e-6), 3u);
  EXPECT_EQ(qrcp_rank(f, 1e-12), 4u);
}

TEST(Qrcp, SelectedColumnsSpanRowSpace) {
  // Rank-4 wide matrix: the 4 pivot columns must reproduce every column via
  // least squares (residual ~ 0).
  const Matrix b = random_matrix(12, 4, 7);
  const Matrix c = random_matrix(4, 30, 8);
  const Matrix a = multiply(b, c);
  const QrcpResult f = qr_colpivot(a);
  ASSERT_EQ(qrcp_rank(f), 4u);
  std::vector<int> pivots(f.perm.begin(), f.perm.begin() + 4);
  const Matrix a_sel = a.select_cols(pivots);  // 12 x 4
  // Projector residual: A - A_sel X with X = (A_sel^T A_sel)^-1 A_sel^T A,
  // the normal-equations solve G X = cross.
  const Matrix g = gram_t(a_sel);              // 4x4
  const Matrix cross = multiply_at(a_sel, a);  // 4 x 30
  const Matrix x = spd_solve(g, cross);
  EXPECT_LT(max_abs_diff(multiply(a_sel, x), a), 1e-9);
}

TEST(Qrcp, DuplicateColumnsPivotLowerIndexFirst) {
  // Columns 1 and 4 are identical and, after column 0, the largest: their
  // updated norms stay bit-equal, and the tie goes to the lower index.
  const Matrix a{{9.0, 3.0, 0.5, 0.1, 3.0},
                 {0.0, 1.0, 0.2, 0.3, 1.0},
                 {1.0, 2.0, 0.1, 0.2, 2.0},
                 {0.0, 1.0, 0.4, 0.1, 1.0}};
  const QrcpResult f = qr_colpivot(a);
  EXPECT_EQ(f.perm[0], 0);
  EXPECT_EQ(f.perm[1], 1);
}

TEST(Qrcp, DuplicateColumnsTieSurvivesParallelUpdates) {
  // A selection-shaped input (few rows, many columns): the twins 650 and
  // 899 sit in different tiles of the pooled update, yet their norms stay
  // bit-equal, so the lower index pivots first at any thread count.
  Matrix a = random_matrix(80, 900, 12);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 650) = 10.0 * a(i, 7);
    a(i, 899) = a(i, 650);
  }
  const QrcpResult f = test::with_threads(4, [&] { return qr_colpivot(a); });
  const auto first = std::find(f.perm.begin(), f.perm.end(), 650);
  const auto second = std::find(f.perm.begin(), f.perm.end(), 899);
  EXPECT_EQ(f.perm[0], 650);
  EXPECT_LT(first, second);
}

TEST(Qrcp, BitIdenticalAcrossThreadCounts) {
  // Wide (the U_r^T shape of Algorithm 2, with an early stop) and tall
  // inputs, each with a zero column and duplicated columns.
  struct Case {
    std::size_t m, n, steps;
  };
  for (const Case c : {Case{260, 701, 230}, Case{600, 245, 0}}) {
    Matrix a = random_matrix(c.m, c.n, 13 + c.m);
    for (std::size_t i = 0; i < c.m; ++i) {
      a(i, 3) = 0.0;
      a(i, 11) = a(i, 2);
      a(i, c.n - 1) = a(i, 2);
    }
    const QrcpResult f1 =
        test::with_threads(1, [&] { return qr_colpivot(a, c.steps); });
    const QrcpResult f4 =
        test::with_threads(4, [&] { return qr_colpivot(a, c.steps); });
    EXPECT_EQ(f1.perm, f4.perm);
    EXPECT_TRUE(test::same_bits(f1.qr.data(), f4.qr.data()));
    EXPECT_TRUE(test::same_bits(f1.tau, f4.tau));
    EXPECT_TRUE(test::same_bits(f1.rdiag_abs, f4.rdiag_abs));
  }
}

}  // namespace
}  // namespace repro::linalg
