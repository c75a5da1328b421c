// Matrix-matrix multiply kernels.
//
// The experiment pipeline multiplies matrices up to a few thousand rows and
// columns (e.g. the path Gram matrix A A^T for ~3.5k paths x ~1.7k
// parameters).  A cache-blocked i-k-j kernel with optional multithreading is
// plenty: it reaches a few GFLOP/s, which keeps full-scale tables in the
// minutes range without pulling in an external BLAS.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace repro::linalg {

// C = A * B
Matrix multiply(const Matrix& a, const Matrix& b);
// C = A * B^T  (computed without materializing B^T)
Matrix multiply_bt(const Matrix& a, const Matrix& b);
// C = A^T * B
Matrix multiply_at(const Matrix& a, const Matrix& b);
// Symmetric rank-k update (SYRK): returns A * A^T, exactly symmetric by
// construction — only the lower triangle is computed, in cache-sized tile
// pairs, then mirrored (~half the flops of the full-GEMM route; the saving
// is recorded under linalg.syrk.flops_saved).
Matrix gram(const Matrix& a);
// A^T * A (same half-triangle-and-mirror scheme)
Matrix gram_t(const Matrix& a);

}  // namespace repro::linalg
