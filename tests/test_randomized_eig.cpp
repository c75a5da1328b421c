#include "linalg/randomized_eig.h"

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
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

// PSD matrix of known rank.
Matrix psd_of_rank(std::size_t n, std::size_t rank, std::uint64_t seed) {
  return gram(random_matrix(n, rank, seed));
}

TEST(RandomizedEig, MatchesDenseEigOnLowRank) {
  const Matrix w = psd_of_rank(120, 15, 1);
  const RandomizedEigResult r = randomized_eig_psd(w);
  const EigenSymResult exact = eigen_sym(w);
  ASSERT_TRUE(r.spectrum_exhausted);
  ASSERT_GE(r.values.size(), 15u);
  // Top eigenvalues agree (exact are ascending).
  for (std::size_t k = 0; k < 15; ++k) {
    const double truth = exact.values[120 - 1 - k];
    EXPECT_NEAR(r.values[k], truth, 1e-8 * (1.0 + truth)) << k;
  }
  // Values beyond the true rank are ~0.
  for (std::size_t k = 15; k < r.values.size(); ++k) {
    EXPECT_LT(r.values[k], 1e-8 * r.values[0]);
  }
}

TEST(RandomizedEig, VectorsOrthonormalAndEigenEquationHolds) {
  const Matrix w = psd_of_rank(90, 10, 2);
  const RandomizedEigResult r = randomized_eig_psd(w);
  const Matrix vtv = multiply_at(r.vectors, r.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(r.vectors.cols())), 1e-9);
  for (std::size_t k = 0; k < 10; ++k) {
    const Vector v = r.vectors.column(k);
    const Vector wv = matvec(w, v);
    for (std::size_t i = 0; i < wv.size(); ++i) {
      EXPECT_NEAR(wv[i], r.values[k] * v[i], 1e-7 * (1.0 + r.values[0]));
    }
  }
}

TEST(RandomizedEig, AdaptiveGrowthCoversLargerRank) {
  // Rank far above the initial sketch: adaptive doubling must capture it.
  const Matrix w = psd_of_rank(300, 180, 3);
  RandomizedEigOptions opt;
  opt.initial_rank = 32;
  const RandomizedEigResult r = randomized_eig_psd(w, opt);
  EXPECT_TRUE(r.spectrum_exhausted);
  std::size_t above = 0;
  for (double v : r.values) {
    if (v > 1e-8 * r.values[0]) ++above;
  }
  EXPECT_EQ(above, 180u);
}

TEST(RandomizedEig, NonAdaptiveStopsAtRequestedSize) {
  const Matrix w = psd_of_rank(200, 150, 4);
  RandomizedEigOptions opt;
  opt.initial_rank = 40;
  opt.adaptive = false;
  const RandomizedEigResult r = randomized_eig_psd(w, opt);
  EXPECT_LE(r.values.size(), 40u + opt.oversample);
  EXPECT_FALSE(r.spectrum_exhausted);
  // The leading eigenvalues are still accurate.
  const EigenSymResult exact = eigen_sym(w);
  for (std::size_t k = 0; k < 10; ++k) {
    const double truth = exact.values[200 - 1 - k];
    EXPECT_NEAR(r.values[k], truth, 0.02 * truth);
  }
}

TEST(RandomizedEig, FullRankMatrixCapped) {
  Matrix w = psd_of_rank(60, 60, 5);
  for (std::size_t i = 0; i < 60; ++i) w(i, i) += 1.0;  // well conditioned
  const RandomizedEigResult r = randomized_eig_psd(w);
  EXPECT_EQ(r.values.size(), 60u);
  EXPECT_TRUE(r.spectrum_exhausted);
}

TEST(RandomizedEig, NotSquareThrows) {
  EXPECT_THROW((void)randomized_eig_psd(Matrix(3, 4)), std::invalid_argument);
}

TEST(RandomizedEig, DeterministicForSeed) {
  const Matrix w = psd_of_rank(80, 12, 6);
  const RandomizedEigResult a = randomized_eig_psd(w);
  const RandomizedEigResult b = randomized_eig_psd(w);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values[i], b.values[i]);
  }
}

TEST(RandomizedEig, BitIdenticalAcrossThreadCounts) {
  // Order 600 with a duplicated row/column pair: the range-finder QRs run
  // on the pool, and the eigenpairs must not depend on the thread count.
  Matrix b = random_matrix(600, 200, 10);
  for (std::size_t j = 0; j < b.cols(); ++j) b(599, j) = b(1, j);
  const Matrix w = gram(b);
  const RandomizedEigResult r1 =
      test::with_threads(1, [&] { return randomized_eig_psd(w); });
  const RandomizedEigResult r4 =
      test::with_threads(4, [&] { return randomized_eig_psd(w); });
  EXPECT_TRUE(test::same_bits(r1.values, r4.values));
  EXPECT_TRUE(test::same_bits(r1.vectors.data(), r4.vectors.data()));
}

TEST(PivotedCholesky, RevealsRank) {
  const Matrix w = psd_of_rank(70, 9, 7);
  const PivotedChol pc = pivoted_cholesky(w);
  EXPECT_EQ(pc.rank, 9u);
}

TEST(PivotedCholesky, FactorReconstructsPermutedMatrix) {
  const Matrix w = psd_of_rank(40, 12, 8);
  const PivotedChol pc = pivoted_cholesky(w);
  ASSERT_EQ(pc.rank, 12u);
  // (L L^T)_{ab} must equal W(perm[a], perm[b]).
  const Matrix llt = multiply_bt(pc.l, pc.l);
  for (std::size_t a = 0; a < 40; ++a) {
    for (std::size_t b = 0; b < 40; ++b) {
      EXPECT_NEAR(llt(a, b),
                  w(static_cast<std::size_t>(pc.perm[a]),
                    static_cast<std::size_t>(pc.perm[b])),
                  1e-8 * (1.0 + w.max_abs()));
    }
  }
}

TEST(PivotedCholesky, FullRankIdentity) {
  const PivotedChol pc = pivoted_cholesky(Matrix::identity(8));
  EXPECT_EQ(pc.rank, 8u);
}

TEST(PivotedCholesky, ZeroMatrix) {
  const PivotedChol pc = pivoted_cholesky(Matrix(5, 5));
  EXPECT_EQ(pc.rank, 0u);
}

TEST(PivotedCholesky, FirstPivotIsLargestDiagonal) {
  Matrix w = Matrix::identity(4);
  w(2, 2) = 9.0;
  const PivotedChol pc = pivoted_cholesky(w);
  EXPECT_EQ(pc.perm[0], 2);
}

TEST(PivotedCholesky, NotSquareThrows) {
  EXPECT_THROW((void)pivoted_cholesky(Matrix(2, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace repro::linalg
