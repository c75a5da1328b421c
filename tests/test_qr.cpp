#include "linalg/qr.h"

#include <gtest/gtest.h>

#include "linalg/gemm.h"
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

TEST(Qr, ThinFactorsReconstruct) {
  const Matrix a = random_matrix(12, 5, 1);
  const QrFactors f = qr_factor(a);
  const Matrix q = qr_thin_q(f);
  const Matrix r = qr_r(f);
  EXPECT_LT(max_abs_diff(multiply(q, r), a), 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  const Matrix a = random_matrix(20, 7, 2);
  const Matrix q = qr_thin_q(qr_factor(a));
  const Matrix qtq = multiply_at(q, q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(7)), 1e-11);
}

TEST(Qr, RIsUpperTriangular) {
  const Matrix r = qr_r(qr_factor(random_matrix(9, 6, 3)));
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < i && j < r.cols(); ++j) {
      EXPECT_DOUBLE_EQ(r(i, j), 0.0);
    }
  }
}

TEST(Qr, WideMatrixFactorization) {
  const Matrix a = random_matrix(4, 9, 8);
  const QrFactors f = qr_factor(a);
  const Matrix q = qr_thin_q(f);
  const Matrix r = qr_r(f);
  EXPECT_EQ(q.cols(), 4u);
  EXPECT_EQ(r.rows(), 4u);
  EXPECT_LT(max_abs_diff(multiply(q, r), a), 1e-11);
}

// Random columns plus the awkward ones: a zero column (tau = 0) and exact
// duplicates (a column that is numerically zero once its twin is factored).
Matrix with_zero_and_duplicate_columns(std::size_t m, std::size_t n,
                                       std::uint64_t seed) {
  Matrix a = random_matrix(m, n, seed);
  for (std::size_t i = 0; i < m; ++i) {
    a(i, 5) = 0.0;
    a(i, 17) = a(i, 3);
    a(i, n - 1) = a(i, 0);
  }
  return a;
}

TEST(Qr, BitIdenticalAcrossThreadCounts) {
  // Trailing ranges of every length mod the tile width go through the pool
  // (700 x 301 is above the parallel threshold from the first reflector).
  struct Shape {
    std::size_t m, n;
  };
  for (const Shape s : {Shape{700, 301}, Shape{260, 517}}) {
    const Matrix a = with_zero_and_duplicate_columns(s.m, s.n, 9 + s.m);
    const QrFactors f1 = test::with_threads(1, [&] { return qr_factor(a); });
    const QrFactors f4 = test::with_threads(4, [&] { return qr_factor(a); });
    const Matrix q1 = test::with_threads(1, [&] { return qr_thin_q(f1); });
    const Matrix q4 = test::with_threads(4, [&] { return qr_thin_q(f1); });
    EXPECT_TRUE(test::same_bits(f1.qr.data(), f4.qr.data()));
    EXPECT_TRUE(test::same_bits(f1.tau, f4.tau));
    EXPECT_TRUE(test::same_bits(q1.data(), q4.data()));
    EXPECT_EQ(f1.tau[5], 0.0);  // the zero column needs no reflector
    EXPECT_LT(max_abs_diff(multiply(q1, qr_r(f1)), a), 1e-10);
  }
}

}  // namespace
}  // namespace repro::linalg
