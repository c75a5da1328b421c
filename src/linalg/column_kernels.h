// Building blocks of the column-contiguous factorizations (Householder QR,
// QR with column pivoting, pivoted Cholesky).
//
// The QR kernels factor a transposed working copy of A: column c of A is
// row c of the copy, so a reflector and every column it updates are
// contiguous in memory.  Independent columns (or, for pivoted Cholesky,
// rows) are spread over the shared pool in fixed tiles.  Each column's
// arithmetic is one sequential loop over its own elements, and the tiles
// are anchored at the start of the range, so neither the result nor the
// grouping of columns depends on the thread count: the factors are
// bit-identical at any REPRO_THREADS (DESIGN.md §6).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "util/thread_pool.h"

namespace repro::linalg::detail {

// Columns per tile, a multiple of the four-column interleave below.
inline constexpr std::size_t kTileCols = 8;
// A range with less work than this runs inline: pool hand-off would cost
// more than it saves.
inline constexpr std::size_t kParallelMinFlops = std::size_t{1} << 17;

// Calls fn(b, e) on consecutive tiles [b, e) of kTileCols items that cover
// [begin, end), on the shared pool when the range carries enough work
// (`flops_per_item` each).  Tiles start at `begin`, so which items share a
// tile is a function of the range alone.
template <typename Fn>
void for_each_tile(std::size_t begin, std::size_t end,
                   std::size_t flops_per_item, const Fn& fn) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  const std::size_t tiles = (count + kTileCols - 1) / kTileCols;
  const auto run = [&](std::size_t tb, std::size_t te) {
    for (std::size_t t = tb; t < te; ++t) {
      const std::size_t b = begin + t * kTileCols;
      fn(b, std::min(end, b + kTileCols));
    }
  };
  const std::size_t nt = util::thread_count();
  if (nt <= 1 || tiles < 2 || count * flops_per_item < kParallelMinFlops) {
    run(0, tiles);
    return;
  }
  // About four chunks per thread for dynamic load balance.
  util::parallel_for(0, tiles, std::max<std::size_t>(1, tiles / (4 * nt)),
                     run);
}

// Multiply-add flops of applying reflectors 0..steps-1 of an m-row
// factorization, each to the columns after it up to n: 4 per element of an
// updated column (dot product plus update).  The value of the
// linalg.<kernel>.flops counters.
inline std::size_t reflector_flops(std::size_t m, std::size_t n,
                                   std::size_t steps) {
  std::size_t flops = 0;
  for (std::size_t j = 0; j < steps; ++j) flops += 4 * (m - j) * (n - j - 1);
  return flops;
}

// Turns x into a Householder reflector in place: returns beta, the value
// H x leaves in x[0], stores the normalized tail v[1..] (v[0] = 1 implicit)
// in x[1..], and sets tau so that H = I - tau v v^T.  x[0] is left for the
// caller to overwrite with beta once H has been applied.  A zero x gives
// tau = 0 (H = I).
inline double make_reflector(std::span<double> x, double& tau) {
  double normx = 0.0;
  for (const double xi : x) normx = std::hypot(normx, xi);
  if (normx == 0.0) {
    tau = 0.0;
    return 0.0;
  }
  const double alpha = x[0];
  const double beta = (alpha >= 0.0) ? -normx : normx;
  const double v0 = alpha - beta;
  tau = -v0 / beta;  // = (beta - alpha) / beta
  const double inv_v0 = 1.0 / v0;
  for (std::size_t i = 1; i < x.size(); ++i) x[i] *= inv_v0;
  return beta;
}

// y <- (I - tau v v^T) y for one length-`len` column; v[0] is read as 1.
inline void apply_reflector(const double* v, double tau, std::size_t len,
                            double* y) {
  double s = y[0];
  for (std::size_t i = 1; i < len; ++i) s += v[i] * y[i];
  s *= tau;
  y[0] -= s;
  for (std::size_t i = 1; i < len; ++i) y[i] -= s * v[i];
}

// apply_reflector on four columns at once.  The four dot products are
// independent chains, so their latencies overlap; each chain still sums in
// index order with the same operations as apply_reflector.
inline void apply_reflector4(const double* v, double tau, std::size_t len,
                             double* y0, double* y1, double* y2, double* y3) {
  double s0 = y0[0], s1 = y1[0], s2 = y2[0], s3 = y3[0];
  for (std::size_t i = 1; i < len; ++i) {
    const double vi = v[i];
    s0 += vi * y0[i];
    s1 += vi * y1[i];
    s2 += vi * y2[i];
    s3 += vi * y3[i];
  }
  s0 *= tau;
  s1 *= tau;
  s2 *= tau;
  s3 *= tau;
  y0[0] -= s0;
  y1[0] -= s1;
  y2[0] -= s2;
  y3[0] -= s3;
  for (std::size_t i = 1; i < len; ++i) {
    const double vi = v[i];
    y0[i] -= s0 * vi;
    y1[i] -= s1 * vi;
    y2[i] -= s2 * vi;
    y3[i] -= s3 * vi;
  }
}

// Applies one reflector to the columns col(c) for c in [b, e), four at a
// time from b, then one at a time.
template <typename Col>
void apply_reflector_cols(const double* v, double tau, std::size_t len,
                          std::size_t b, std::size_t e, const Col& col) {
  std::size_t c = b;
  for (; c + 4 <= e; c += 4) {
    apply_reflector4(v, tau, len, col(c), col(c + 1), col(c + 2), col(c + 3));
  }
  for (; c < e; ++c) apply_reflector(v, tau, len, col(c));
}

}  // namespace repro::linalg::detail
