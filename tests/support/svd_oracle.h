// Paper-reference oracle for the test suite: a dense thin SVD of A, and
// Algorithm 2 on top of it.
//
// Golub–Reinsch: Householder bidiagonalization followed by implicit-shift QR
// on the bidiagonal, accumulating U and V.  The library never factors A
// itself (core::SubsetSelector and core::gram_singular_values work on the
// smaller Gram side), so this SVD is what the tests hold those routes to:
// the same rank, the same spectrum and the same representatives, computed
// without any of the code under test.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace repro::test {

struct SvdResult {
  linalg::Matrix u;  // m x k, orthonormal columns (k = min(m, n))
  linalg::Vector s;  // k singular values, sorted non-increasing, >= 0
  linalg::Matrix v;  // n x k, orthonormal columns
  bool converged = true;
};

// Computes the thin SVD.  Matrices with rows < cols are handled by
// transposition.  `want_uv=false` skips accumulating the singular vectors.
SvdResult svd(linalg::Matrix a, bool want_uv = true);

// Numerical rank: number of singular values above
// tol = max(m, n) * eps * s[0] (or rel_tol * s[0] if rel_tol >= 0).
std::size_t svd_rank(const SvdResult& f, std::size_t m, std::size_t n,
                     double rel_tol = -1.0);

// Reconstruct U diag(s) V^T.
linalg::Matrix svd_reconstruct(const SvdResult& f);

// Algorithm 2 from the dense SVD: rank(A) by svd_rank's default rule, and
// the representatives for r as the first r pivots of QR with column
// pivoting on U_r^T.
class SvdSelector {
 public:
  explicit SvdSelector(const linalg::Matrix& a);

  std::size_t rank() const { return rank_; }
  const linalg::Vector& singular_values() const { return f_.s; }
  std::vector<int> select(std::size_t r) const;

 private:
  SvdResult f_;
  std::size_t rank_;
};

}  // namespace repro::test
