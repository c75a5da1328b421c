#include "linalg/sparse_rows.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace repro::linalg {
namespace {

std::uint64_t counter_value(const char* name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// A sensitivity-like operand: about `density` of the entries nonzero, every
// fifth row all zero and every seventh row a copy of the row before it.
Matrix sparse_matrix(std::size_t r, std::size_t c, double density,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    if (i % 5 == 4) continue;
    if (i % 7 == 6) {
      m.set_row(i, m.row(i - 1));
      continue;
    }
    for (std::size_t j = 0; j < c; ++j) {
      if (rng.uniform() < density) m(i, j) = rng.normal();
    }
  }
  return m;
}

Matrix abs_of(const Matrix& a) {
  Matrix out = a;
  for (double& v : out.data()) v = std::abs(v);
  return out;
}

// |sparse - dense| <= 1e-13 (|A| |B|)_ij: relative to the size of the terms
// summed, so entries that cancel to near zero are held to the same standard.
void expect_matches_dense(const Matrix& a, const Matrix& b) {
  const Matrix got = multiply(SparseRows(a), b);
  const Matrix want = multiply(a, b);
  const Matrix scale = multiply(abs_of(a), abs_of(b));
  ASSERT_EQ(got.rows(), a.rows());
  ASSERT_EQ(got.cols(), b.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_LE(std::abs(got(i, j) - want(i, j)), 1e-13 * scale(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(SparseRows, KeepsOnlyNonzerosInColumnOrder) {
  const Matrix a{{0.0, 2.0, 0.0, -1.0},
                 {0.0, 0.0, 0.0, 0.0},
                 {3.0, 0.0, 0.0, 0.0}};
  const SparseRows s(a);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_EQ(s.nnz(), 3u);
  const Matrix b{{1.0}, {10.0}, {100.0}, {1000.0}};
  const Matrix c = multiply(s, b);
  EXPECT_EQ(c(0, 0), 20.0 - 1000.0);
  EXPECT_EQ(c(1, 0), 0.0);
  EXPECT_EQ(c(2, 0), 3.0);
}

TEST(SparseRows, SelectedRowsInGivenOrder) {
  const Matrix a = sparse_matrix(12, 30, 0.2, 1);
  const std::vector<int> rows = {7, 2, 2, 11};
  const SparseRows s(a, rows);
  const Matrix b = random_matrix(30, 5, 2);
  const Matrix got = multiply(s, b);
  const Matrix want = multiply(SparseRows(a.select_rows(rows)), b);
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j));
    }
  }
  EXPECT_THROW(SparseRows(a, std::vector<int>{12}), std::out_of_range);
  EXPECT_THROW(SparseRows(a, std::vector<int>{-1}), std::out_of_range);
}

TEST(SparseRows, MatchesDenseMultiply) {
  // Zero rows, duplicate rows, a single column, widths around the
  // register block, and a product large enough for the SIMD GEMM tier.
  expect_matches_dense(sparse_matrix(40, 60, 0.1, 3), random_matrix(60, 1, 4));
  expect_matches_dense(sparse_matrix(40, 60, 0.1, 5), random_matrix(60, 17, 6));
  expect_matches_dense(sparse_matrix(90, 300, 0.07, 7),
                       random_matrix(300, 70, 8));
  expect_matches_dense(random_matrix(8, 25, 9), random_matrix(25, 33, 10));
  expect_matches_dense(Matrix(6, 20), random_matrix(20, 9, 11));
}

TEST(SparseRows, ZeroRowOperandAndZeroColumns) {
  const SparseRows empty(20);
  EXPECT_EQ(empty.rows(), 0u);
  const Matrix c = multiply(empty, random_matrix(20, 4, 12));
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 4u);
  const Matrix d = multiply(SparseRows(sparse_matrix(5, 20, 0.3, 13)),
                            Matrix(20, 0));
  EXPECT_EQ(d.rows(), 5u);
  EXPECT_EQ(d.cols(), 0u);
}

TEST(SparseRows, ShapeErrorsThrow) {
  SparseRows s(4);
  EXPECT_THROW(s.push_row(std::vector<double>(3, 1.0)), std::invalid_argument);
  EXPECT_THROW((void)multiply(s, Matrix(3, 2)), std::invalid_argument);
}

TEST(SparseRows, ElementDoesNotDependOnColumnGrouping) {
  // Every element is one fixed-order sum over its row, so the same column
  // of B gives the same bits whatever the width it is multiplied with.
  const Matrix a = sparse_matrix(50, 200, 0.1, 14);
  const Matrix b = random_matrix(200, 64, 15);
  const SparseRows s(a);
  const Matrix full = multiply(s, b);
  for (std::size_t width : {1u, 5u, 16u, 17u, 37u}) {
    std::vector<double> out(width);
    for (std::size_t i = 0; i < s.rows(); ++i) {
      s.multiply_row(i, b, out);
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ(out[j], full(i, j)) << "width " << width;
      }
    }
  }
  const Matrix last = multiply(s, b.select_cols(std::vector<int>{63}));
  for (std::size_t i = 0; i < s.rows(); ++i) {
    EXPECT_EQ(last(i, 0), full(i, 63));
  }
}

TEST(SparseRows, CountsTwoFlopsPerStoredEntryAndColumn) {
  const SparseRows s(sparse_matrix(30, 80, 0.15, 18));
  const Matrix b = random_matrix(80, 21, 19);
  const std::uint64_t before = counter_value("linalg.spmm.flops");
  (void)multiply(s, b);
  EXPECT_EQ(counter_value("linalg.spmm.flops") - before,
            2 * s.nnz() * b.cols());
}

}  // namespace
}  // namespace repro::linalg
