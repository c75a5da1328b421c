// Internal micro-kernel tables behind linalg::simd dispatch.
//
// One KernelOps per tier; every pointer is non-null in a registered table.
// The four primitives cover the dense hot loops:
//
//   axpy      y[0..n) += alpha * x[0..n)           (GEMM A^T-form, trsm slab)
//   dot       sum x[i]*y[i]                        (Cholesky inner products)
//   dot4      four dots of one x against y0..y3    (SYRK tile cells)
//   gemm_ukr  C(mr x nr) += Apack(mr x kc) * Bpack(kc x nr)
//             Apack is k-major groups of mr values, Bpack k-major groups of
//             nr values (the packed-panel layout produced by gemm.cpp); C is
//             row-major with leading dimension ldc.
//
// Raw intrinsics live only in the per-tier .cpp files of this directory
// (enforced by repro_lint's simd-confinement check).
#pragma once

#include <cstddef>

#include "linalg/simd/dispatch.h"

namespace repro::linalg::simd {

struct KernelOps {
  Tier tier = Tier::kScalar;
  const char* name = "scalar";
  // GEMM micro-tile geometry for gemm_ukr (mr rows of C, nr columns).
  std::size_t mr = 4;
  std::size_t nr = 8;
  // Nominal per-core double-precision FLOPs/cycle at this tier, the
  // numerator convention behind theoretical_peak_gflops.
  double flops_per_cycle = 4.0;

  void (*axpy)(std::size_t n, double alpha, const double* x, double* y);
  double (*dot)(std::size_t n, const double* x, const double* y);
  void (*dot4)(std::size_t n, const double* x, const double* y0,
               const double* y1, const double* y2, const double* y3,
               double out[4]);
  void (*gemm_ukr)(std::size_t kc, const double* apack, const double* bpack,
                   double* c, std::size_t ldc);
};

// Per-tier tables.  A tier that is not compiled for this target returns
// nullptr; dispatch treats it as unavailable.
const KernelOps* scalar_ops();
const KernelOps* avx2_ops();
const KernelOps* avx512_ops();

// Table for the active tier (never null; scalar when nothing wider is
// available).  Hot kernels load this once per call.
const KernelOps& ops();

}  // namespace repro::linalg::simd
