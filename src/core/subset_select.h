// Algorithm 2: selection of r representative rows of A.
//
//   1. SVD:  A = U diag(s) V^T.
//   2. QR with column pivoting on U_r^T (U_r = first r columns of U); the
//      permutation ranks the rows of A by how much independent direction
//      each contributes within the dominant r-dimensional row space.
//   3. The first r pivots are the representative rows.
//
// The factorization is computed once and shared across all r (Algorithm 1
// calls this for many candidate r values).  Only rank(A), the singular
// values and span(U_r) are needed, and QRCP pivots depend only on that span,
// so no dense SVD is run: the selector eigendecomposes whichever Gram side
// of A is smaller.
//
//   * Wide A (cols >= rows): W = A A^T (n x n); U = eigenvectors of W.
//   * Tall A (rows > cols):  C = A^T A (m x m); V = eigenvectors of C and
//     U_r = A V_r diag(s_r)^-1.
//
// Either way s_i = sqrt(lambda_i), and rank(A) counts the s_i above
// tau = 4 sqrt(max(n, m) eps) s_0; the s_i at or below tau are set to 0.
// A Gram side of order <= 512 is eigendecomposed densely; above that,
// rank(A) comes from a pivoted Cholesky of the Gram side in
// O(order rank^2) and the leading eigenpairs are captured lazily by a
// randomized eigensolver sized to the largest r actually requested plus
// its oversampling margin — never an O(order^3) dense eigendecomposition.
//
// Conditioning envelope.  Forming the Gram squares the condition number:
// eigenvalue noise of order max(n, m) eps s_0^2 turns into spurious
// singular values of order sqrt(max(n, m) eps) s_0, so tau is the smallest
// singular value the Gram route resolves.  When every nonzero singular
// value of A lies above tau, rank() equals the rank of a dense SVD that
// counts the singular values above max(n, m) eps s_0 (the test suite's
// Golub-Reinsch oracle).  Directions below tau are dropped, never
// invented: rank() never exceeds that dense-SVD rank.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

class SubsetSelector {
 public:
  // Gram route.  `gram` is W = A A^T (n x n); it is factored directly when
  // A is wide, and C = A^T A is formed and factored when A is tall.
  SubsetSelector(const linalg::Matrix& a, const linalg::Matrix& gram);

  // Numerical rank of A.
  std::size_t rank() const { return rank_; }

  // Singular values; on the lazy Gram route this triggers capture of the
  // full numerically-nonzero spectrum (values beyond rank() are zero).
  const linalg::Vector& singular_values() const;

  // Representative row indices for a given r (1 <= r <= rank()).  The
  // returned order is the pivot order (most informative row first).
  // Results are memoized per r: Algorithm 1's bisection probes the same
  // candidate sizes repeatedly, and the QRCP on U_r^T is not nested across
  // r, so each distinct r pays for exactly one factorization.
  std::vector<int> select(std::size_t r) const;

  // Alternative heuristic: greedy residual-variance selection = the first r
  // entries of greedy_order(gram) (equivalently, QR with column pivoting on
  // A^T directly, without the SVD truncation of Algorithm 2).  One
  // factorization serves every r; the ablation bench compares the two.
  std::vector<int> select_greedy(std::size_t r,
                                 const linalg::Matrix& gram) const;

  // Full greedy pivot order: pivoted Cholesky of the caller's W = A A^T,
  // computed once and cached (the lazy wide route has it from its rank
  // factorization already).  Only the first rank() entries are meaningful
  // pivots; the tail lists the never-chosen indices.
  const std::vector<int>& greedy_order(const linalg::Matrix& gram) const;

 private:
  void ensure_captured(std::size_t k) const;

  // Singular values and the leading left singular vectors U (columns);
  // on the lazy route, the part captured so far.
  mutable linalg::Vector s_;
  mutable linalg::Matrix u_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t rank_ = 0;
  // Lazy route only: the factored Gram side (W or C) and, when it is C, a
  // copy of A to lift captured eigenvectors V into U = A V diag(s)^-1.
  linalg::Matrix side_;
  linalg::Matrix a_;
  bool lazy_ = false;
  mutable std::vector<int> greedy_order_;  // pivoted-Cholesky order, lazy
  // Memoized select(r) results (selector is logically const; probes repeat).
  mutable std::map<std::size_t, std::vector<int>> select_memo_;
};

// rank(A) by the lazy route's rule: a pivoted Cholesky of the smaller Gram
// side (C = A^T A when A is tall, W = A A^T otherwise) at tolerance tau^2.
// Only that side is formed, so a tall pool never pays for an n x n block.
// It equals SubsetSelector::rank() whenever that side has order > 512.
std::size_t gram_rank(const linalg::Matrix& a);

// All min(n, m) singular values of A from a dense eigendecomposition of the
// smaller Gram side, non-increasing, with values at or below tau set to 0
// exactly as the dense selector route does (so the count of nonzero values
// is rank(A)).  This is the spectrum Figure 2 plots: effective_rank sums
// singular values, not their squares, so an uncut sqrt(noise) tail would
// inflate the energy of a rank-deficient A.
linalg::Vector gram_singular_values(const linalg::Matrix& a);

}  // namespace repro::core
