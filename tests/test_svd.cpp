// The test-support SVD oracle must itself be right before other tests can
// lean on it.
#include "svd_oracle.h"

#include <gtest/gtest.h>

#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::test {
namespace {

using namespace linalg;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

void expect_orthonormal_columns(const Matrix& q, double tol) {
  const Matrix qtq = multiply_at(q, q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(q.cols())), tol);
}

TEST(Svd, DiagonalMatrixKnownValues) {
  Vector d{3.0, 1.0, 2.0};
  const SvdResult f = svd(Matrix::diagonal(d));
  ASSERT_TRUE(f.converged);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, SingularValuesSortedNonIncreasing) {
  const SvdResult f = svd(random_matrix(25, 12, 1));
  for (std::size_t i = 1; i < f.s.size(); ++i) {
    EXPECT_GE(f.s[i - 1], f.s[i]);
  }
}

TEST(Svd, AllSingularValuesNonNegative) {
  const SvdResult f = svd(random_matrix(10, 10, 2));
  for (double s : f.s) EXPECT_GE(s, 0.0);
}

TEST(Svd, ReconstructionTall) {
  const Matrix a = random_matrix(30, 9, 3);
  const SvdResult f = svd(a);
  ASSERT_TRUE(f.converged);
  EXPECT_LT(max_abs_diff(svd_reconstruct(f), a), 1e-10);
}

TEST(Svd, ReconstructionWide) {
  const Matrix a = random_matrix(7, 23, 4);
  const SvdResult f = svd(a);
  ASSERT_TRUE(f.converged);
  EXPECT_EQ(f.u.rows(), 7u);
  EXPECT_EQ(f.u.cols(), 7u);
  EXPECT_EQ(f.v.rows(), 23u);
  EXPECT_LT(max_abs_diff(svd_reconstruct(f), a), 1e-10);
}

TEST(Svd, ReconstructionSquare) {
  const Matrix a = random_matrix(16, 16, 5);
  const SvdResult f = svd(a);
  EXPECT_LT(max_abs_diff(svd_reconstruct(f), a), 1e-10);
}

TEST(Svd, OrthonormalFactors) {
  const Matrix a = random_matrix(18, 11, 6);
  const SvdResult f = svd(a);
  expect_orthonormal_columns(f.u, 1e-11);
  expect_orthonormal_columns(f.v, 1e-11);
}

TEST(Svd, RankOfProductMatrix) {
  const Matrix a = multiply(random_matrix(20, 4, 7), random_matrix(4, 15, 8));
  const SvdResult f = svd(a);
  EXPECT_EQ(svd_rank(f, 20, 15), 4u);
}

TEST(Svd, RankZeroMatrix) {
  const SvdResult f = svd(Matrix(5, 3));
  EXPECT_EQ(svd_rank(f, 5, 3), 0u);
}

TEST(Svd, SingularValuesMatchEigenvaluesOfGram) {
  const Matrix a = random_matrix(12, 8, 9);
  const SvdResult f = svd(a);
  // Frobenius norm identity: sum s_i^2 = ||A||_F^2.
  double ss = 0.0;
  for (double s : f.s) ss += s * s;
  const double fro = a.frobenius_norm();
  EXPECT_NEAR(ss, fro * fro, 1e-9 * fro * fro);
}

TEST(Svd, OperatorNormViaMatvec) {
  const Matrix a = random_matrix(14, 10, 10);
  const SvdResult f = svd(a);
  // ||A v_0|| == s_0 and A v_0 == s_0 u_0.
  const Vector v0 = f.v.column(0);
  const Vector av = matvec(a, v0);
  EXPECT_NEAR(norm2(av), f.s[0], 1e-10);
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_NEAR(av[i], f.s[0] * f.u(i, 0), 1e-9);
  }
}

TEST(Svd, ValuesOnlyModeMatchesFull) {
  const Matrix a = random_matrix(20, 13, 11);
  const SvdResult full = svd(a);
  const SvdResult vals = svd(a, /*want_uv=*/false);
  ASSERT_EQ(full.s.size(), vals.s.size());
  for (std::size_t i = 0; i < full.s.size(); ++i) {
    EXPECT_NEAR(full.s[i], vals.s[i], 1e-10 * (1.0 + full.s[0]));
  }
  EXPECT_TRUE(vals.u.empty());
}

TEST(Svd, HugeDynamicRange) {
  Matrix a = Matrix::diagonal(Vector{1e8, 1.0, 1e-8});
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 1e8, 1e-4);
  EXPECT_NEAR(f.s[1], 1.0, 1e-10);
  EXPECT_NEAR(f.s[2], 1e-8, 1e-16);
}

TEST(Svd, SingleColumnAndSingleRow) {
  Matrix col(4, 1);
  col(0, 0) = 3.0;
  col(1, 0) = 4.0;
  const SvdResult fc = svd(col);
  EXPECT_NEAR(fc.s[0], 5.0, 1e-12);

  Matrix row(1, 4);
  row(0, 2) = -2.0;
  const SvdResult fr = svd(row);
  EXPECT_NEAR(fr.s[0], 2.0, 1e-12);
}

}  // namespace
}  // namespace repro::test
