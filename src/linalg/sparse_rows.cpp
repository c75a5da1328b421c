#include "linalg/sparse_rows.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::linalg {
namespace {

// Output columns accumulated together: their running sums stay in registers
// while the row's nonzeros stream past, and the rows of B they read form a
// contiguous kBlock-wide strip.
constexpr std::size_t kBlock = 16;

// out[j] = sum_p values[p] * b(col[p], j) for j < w, over the row's `count`
// nonzeros in order.  Full blocks pass w as a compile-time constant, so the
// sums are unrolled into registers; the tail runs the same loop with a
// runtime width, so an element's arithmetic does not depend on where its
// column falls.
template <typename Width>
void accumulate(const double* values, const std::uint32_t* col,
                std::size_t count, const double* b, std::size_t ldb, Width w,
                double* out) {
  double acc[kBlock] = {};
  for (std::size_t p = 0; p < count; ++p) {
    const double v = values[p];
    const double* bp = b + col[p] * ldb;
    for (std::size_t j = 0; j < w; ++j) acc[j] += v * bp[j];
  }
  std::copy(acc, acc + w, out);
}

}  // namespace

SparseRows::SparseRows(const Matrix& a) : cols_(a.cols()) {
  for (std::size_t i = 0; i < a.rows(); ++i) push_row(a.row(i));
}

SparseRows::SparseRows(const Matrix& a, std::span<const int> rows)
    : cols_(a.cols()) {
  for (const int i : rows) {
    if (i < 0 || static_cast<std::size_t>(i) >= a.rows()) {
      throw std::out_of_range("SparseRows: row index out of range");
    }
    push_row(a.row(static_cast<std::size_t>(i)));
  }
}

void SparseRows::push_row(std::span<const double> dense) {
  if (dense.size() != cols_) {
    throw std::invalid_argument("SparseRows::push_row: row length");
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    if (dense[j] != 0.0) {
      col_.push_back(static_cast<std::uint32_t>(j));
      values_.push_back(dense[j]);
    }
  }
  row_start_.push_back(values_.size());
}

void SparseRows::multiply_row(std::size_t i, const Matrix& b,
                              std::span<double> out) const {
  REPRO_CHECK(i < rows(), "SparseRows::multiply_row: row index");
  REPRO_CHECK_DIM(b.rows(), cols_, "SparseRows::multiply_row: inner dims");
  REPRO_CHECK(out.size() <= b.cols(), "SparseRows::multiply_row: width");
  const std::size_t begin = row_start_[i];
  const std::size_t count = row_start_[i + 1] - begin;
  const double* values = values_.data() + begin;
  const std::uint32_t* col = col_.data() + begin;
  const std::size_t n = out.size(), ldb = b.cols();
  const double* bdata = b.data().data();
  std::size_t j0 = 0;
  for (; j0 + kBlock <= n; j0 += kBlock) {
    accumulate(values, col, count, bdata + j0, ldb,
               std::integral_constant<std::size_t, kBlock>{}, out.data() + j0);
  }
  if (j0 < n) {
    accumulate(values, col, count, bdata + j0, ldb, n - j0, out.data() + j0);
  }
}

// The inner dimensions are validated unconditionally, as for the dense
// multiply; a contract would duplicate the check.
// repro-lint: allow(contracts)
Matrix multiply(const SparseRows& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiply(SparseRows): inner dimensions");
  }
  count_spmm(a.nnz(), b.cols());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) a.multiply_row(i, b, c.row(i));
  return c;
}

void count_spmm(std::size_t nnz, std::size_t cols) {
  util::telemetry::count("linalg.spmm.flops", 2 * nnz * cols);
}

}  // namespace repro::linalg
