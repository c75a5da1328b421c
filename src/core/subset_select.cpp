#include "core/subset_select.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/qr_colpivot.h"
#include "linalg/randomized_eig.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

// Rank threshold on Gram eigenvalues: noise below dim * eps * lambda_max
// turns into spurious singular values of order sqrt(dim * eps) * sigma_max,
// so the singular-value threshold must sit above that level.
double gram_rank_rel_tol(std::size_t rows, std::size_t cols) {
  const double dim = static_cast<double>(std::max(rows, cols));
  return std::sqrt(dim * std::numeric_limits<double>::epsilon()) * 4.0;
}

// The Gram-route rank rule: a pivoted Cholesky of W or C that stops at the
// eigenvalue-scale tolerance tau^2.  Its rank is rank(A); on W its pivot
// order is also the greedy order.
linalg::PivotedChol pivoted_gram(const linalg::Matrix& side, std::size_t rows,
                                 std::size_t cols) {
  const double tol = gram_rank_rel_tol(rows, cols);
  return linalg::pivoted_cholesky(side, tol * tol);
}

// Singular values of A from the ascending eigenvalues of one of its Gram
// sides: s_k = sqrt(max(lambda, 0)) in descending order, with every value at
// or below tau = gram_rank_rel_tol * s_0 set to exactly 0 (below tau a value
// is Gram rounding noise, not a direction of A).  The count of nonzero
// values is rank(A).
linalg::Vector singular_values_from_eigen(const linalg::Vector& ascending,
                                          std::size_t rows, std::size_t cols) {
  const std::size_t order = ascending.size();
  linalg::Vector s(order);
  for (std::size_t k = 0; k < order; ++k) {
    s[k] = std::sqrt(std::max(ascending[order - 1 - k], 0.0));
  }
  if (order == 0) return s;
  const double tau = gram_rank_rel_tol(rows, cols) * s[0];
  for (double& v : s) {
    if (v <= tau) v = 0.0;
  }
  return s;
}

// The smaller Gram side of A: C = A^T A when A is tall, W = A A^T otherwise.
linalg::Matrix smaller_gram_side(const linalg::Matrix& a) {
  return a.rows() > a.cols() ? linalg::gram_t(a) : linalg::gram(a);
}

// The k leading eigenvectors of an eigen_sym result (ascending), as columns
// in descending eigenvalue order.
linalg::Matrix leading_vectors(const linalg::Matrix& vectors, std::size_t k) {
  const std::size_t n = vectors.rows();
  linalg::Matrix out(n, k);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) out(i, c) = vectors(i, n - 1 - c);
  }
  return out;
}

// Left singular vectors from right ones, u_j = A v_j / s_j, for the columns
// of `v`.  Callers lift only columns within the rank; a zero s_j can still
// reach here on the lazy route (pivoted-Cholesky rank vs captured spectrum)
// and yields a zero column instead of a division by zero.
linalg::Matrix lift_left(const linalg::Matrix& a, const linalg::Matrix& v,
                         const linalg::Vector& s) {
  linalg::Matrix u = linalg::multiply(a, v);
  for (std::size_t j = 0; j < u.cols(); ++j) {
    const double inv = s[j] > 0.0 ? 1.0 / s[j] : 0.0;
    for (std::size_t i = 0; i < u.rows(); ++i) u(i, j) *= inv;
  }
  return u;
}

}  // namespace

SubsetSelector::SubsetSelector(const linalg::Matrix& a,
                               const linalg::Matrix& gram)
    : rows_(a.rows()), cols_(a.cols()) {
  if (gram.rows() != a.rows() || gram.cols() != a.rows()) {
    throw std::invalid_argument("SubsetSelector: gram shape mismatch");
  }
  const util::telemetry::Span span("core.select.factorize");
  util::telemetry::count("core.select.gram_route");
  const bool tall = rows_ > cols_;
  linalg::Matrix side = tall ? linalg::gram_t(a) : gram;
  const std::size_t order = side.rows();
  if (order > 512) {
    // Lazy route: rank from pivoted Cholesky (O(order rank^2)); eigenpairs
    // are captured on demand by ensure_captured().  On W the pivot order is
    // also the greedy order.
    const linalg::PivotedChol pc = pivoted_gram(side, rows_, cols_);
    rank_ = pc.rank;
    if (tall) {
      a_ = a;
    } else {
      greedy_order_ = pc.perm;
    }
    side_ = std::move(side);
    lazy_ = true;
    return;
  }
  const linalg::EigenSymResult eig = linalg::eigen_sym(std::move(side));
  if (!eig.converged) {
    throw std::runtime_error("SubsetSelector: eigendecomposition failed");
  }
  s_ = singular_values_from_eigen(eig.values, rows_, cols_);
  rank_ = static_cast<std::size_t>(
      std::count_if(s_.begin(), s_.end(), [](double v) { return v != 0.0; }));
  linalg::Matrix lead = leading_vectors(eig.vectors, rank_);
  u_ = tall ? lift_left(a, lead, s_) : std::move(lead);
}

void SubsetSelector::ensure_captured(std::size_t k) const {
  if (!lazy_) return;
  const std::size_t order = side_.rows();
  linalg::RandomizedEigOptions opt;
  // A sketch's last `oversample` vectors are its least accurate, so k values
  // are usable only when k + oversample are held; the min stops a
  // full-order capture from recapturing.
  if (s_.size() >= std::min(order, k + opt.oversample)) return;
  const util::telemetry::Span span("core.select.eig_capture");
  opt.initial_rank = std::min(order, std::max(k, 2 * s_.size()));
  opt.adaptive = false;  // capture exactly what was asked (plus oversample)
  linalg::RandomizedEigResult eig = linalg::randomized_eig_psd(side_, opt);
  // Captured values beyond the pivoted-Cholesky rank are noise: zero them,
  // as the dense route's tau cut does.
  s_.resize(eig.values.size());
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    s_[i] = i < rank_ ? std::sqrt(eig.values[i]) : 0.0;
  }
  if (a_.empty()) {
    u_ = std::move(eig.vectors);
  } else {
    const std::size_t lift = std::min(eig.vectors.cols(), rank_);
    u_ = lift_left(a_, eig.vectors.left_cols(lift), s_);
  }
}

const linalg::Vector& SubsetSelector::singular_values() const {
  // The spectrum beyond rank() is numerically zero, so capturing `rank_`
  // values yields the complete energy profile.
  ensure_captured(rank_);
  return s_;
}

std::vector<int> SubsetSelector::select(std::size_t r) const {
  if (r == 0 || r > rank_ || r > rows_) {
    throw std::invalid_argument("SubsetSelector::select: bad r");
  }
  // QRCP on U_r^T is not nested across r (the row space truncation changes
  // with r), but it IS deterministic per r — so bisection probes that
  // revisit a candidate size hit the memo instead of re-pivoting.
  const auto hit = select_memo_.find(r);
  if (hit != select_memo_.end()) return hit->second;
  ensure_captured(r);
  // U_r^T is r x n; column pivoting needs only the first r pivot steps.
  linalg::Matrix urt(r, rows_);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < rows_; ++j) urt(i, j) = u_(j, i);
  }
  const linalg::QrcpResult f = linalg::qr_colpivot(std::move(urt), r);
  std::vector<int> rows(f.perm.begin(),
                        f.perm.begin() + static_cast<std::ptrdiff_t>(r));
  return select_memo_.emplace(r, std::move(rows)).first->second;
}

std::vector<int> SubsetSelector::select_greedy(
    std::size_t r, const linalg::Matrix& gram) const {
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "SubsetSelector::select_greedy: square Gram");
  if (r == 0 || r > rank_ || r > rows_) {
    throw std::invalid_argument("SubsetSelector::select_greedy: bad r");
  }
  const std::vector<int>& order = greedy_order(gram);
  return {order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r)};
}

const std::vector<int>& SubsetSelector::greedy_order(
    const linalg::Matrix& gram) const {
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "SubsetSelector::greedy_order: square Gram");
  if (greedy_order_.empty()) {
    if (gram.rows() != rows_ || gram.cols() != rows_) {
      throw std::invalid_argument(
          "SubsetSelector::greedy_order: Gram order vs path count");
    }
    greedy_order_ = pivoted_gram(gram, rows_, cols_).perm;
  }
  return greedy_order_;
}

// Every shape is valid input (an empty A has rank 0), so there is no
// precondition to state.
// repro-lint: allow(contracts)
std::size_t gram_rank(const linalg::Matrix& a) {
  return pivoted_gram(smaller_gram_side(a), a.rows(), a.cols()).rank;
}

// Every shape is valid input (an empty A has no singular values).
// repro-lint: allow(contracts)
linalg::Vector gram_singular_values(const linalg::Matrix& a) {
  const util::telemetry::Span span("core.gram_singular_values");
  const linalg::EigenSymResult eig =
      linalg::eigen_sym(smaller_gram_side(a), /*want_vectors=*/false);
  if (!eig.converged) {
    throw std::runtime_error("gram_singular_values: eigendecomposition failed");
  }
  return singular_values_from_eigen(eig.values, a.rows(), a.cols());
}

}  // namespace repro::core
