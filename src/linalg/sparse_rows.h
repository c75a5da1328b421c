// Compressed sparse rows for the path-sensitivity matrices.
//
// A = G Sigma has one random variable per covered gate plus the spatial
// region components, so a path's row of A touches only its own gates and
// regions: about 5 % of the entries are nonzero on s38417 and 7.5 % on s9234.
// Monte-Carlo evaluation forms A x for thousands of samples, and a dense
// product would spend nearly all of its flops on those zeros.
//
// SparseRows stores each row's nonzeros in increasing column order.  Every
// product sums an output element over its row's nonzeros in that fixed
// order, starting from zero, so the element depends only on its row of A and
// its column of B: not on how many columns B has or how they are grouped
// into blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

class SparseRows {
 public:
  // An empty operand with `cols` columns; add rows with push_row.
  explicit SparseRows(std::size_t cols = 0) : cols_(cols) {}
  // Every row of `a`.
  explicit SparseRows(const Matrix& a);
  // Rows `rows` of `a`, in the given order.
  SparseRows(const Matrix& a, std::span<const int> rows);

  // Appends a row given densely (length cols()), keeping its nonzeros.
  void push_row(std::span<const double> dense);

  std::size_t rows() const { return row_start_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  // out[j] = (A B)(i, j) for j < out.size() <= b.cols().  Not counted in
  // telemetry: a caller that fuses rows into its own loop records the work
  // with count_spmm once, outside any parallel region.
  void multiply_row(std::size_t i, const Matrix& b,
                    std::span<double> out) const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_{0};
  std::vector<std::uint32_t> col_;
  Vector values_;
};

// C = A B, row by row with multiply_row.  Counts its work with count_spmm.
Matrix multiply(const SparseRows& a, const Matrix& b);

// Adds 2 * nnz * cols to linalg.spmm.flops: the multiply-adds of a product
// of `nnz` stored entries with `cols` columns.
void count_spmm(std::size_t nnz, std::size_t cols);

}  // namespace repro::linalg
