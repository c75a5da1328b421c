#include "linalg/qr_colpivot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/column_kernels.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::linalg {

QrcpResult qr_colpivot(Matrix a, std::size_t max_steps) {
  REPRO_CHECK(!a.empty() || max_steps == 0,
              "qr_colpivot: empty input admits no pivot steps");
  const util::telemetry::Span span("linalg.qr_colpivot");
  util::telemetry::count("linalg.qr_colpivot.calls");
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t kmax0 = std::min(m, n);
  const std::size_t kmax =
      (max_steps == 0) ? kmax0 : std::min(kmax0, max_steps);
  util::telemetry::count("linalg.qr_colpivot.flops",
                         detail::reflector_flops(m, n, kmax));

  QrcpResult out;
  out.perm.resize(n);
  std::iota(out.perm.begin(), out.perm.end(), 0);
  out.tau.assign(kmax, 0.0);
  out.rdiag_abs.assign(kmax, 0.0);

  // Column c of A is row c of `at`, so a column swap is a row swap and
  // every column update is contiguous.
  Matrix at = a.transposed();

  // Running squared column norms of the trailing submatrix, updated after
  // each reflector (with periodic recomputation for numerical safety, per
  // LINPACK's downdating recipe).
  Vector colnorm2(n), colnorm2_ref(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (const double x : at.row(j)) s += x * x;
    colnorm2[j] = colnorm2_ref[j] = s;
  }

  for (std::size_t k = 0; k < kmax; ++k) {
    // Pivot: remaining column with the largest updated norm (the first
    // one on ties).
    std::size_t piv = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (colnorm2[j] > colnorm2[piv]) piv = j;
    }
    if (piv != k) {
      at.swap_rows(piv, k);
      std::swap(colnorm2[piv], colnorm2[k]);
      std::swap(colnorm2_ref[piv], colnorm2_ref[k]);
      std::swap(out.perm[piv], out.perm[k]);
    }

    // Householder reflector on column k (rows k..m-1).
    double* v = at.row(k).data() + k;
    double tau = 0.0;
    const double beta = detail::make_reflector({v, m - k}, tau);
    if (tau == 0.0) continue;
    v[0] = beta;
    out.tau[k] = tau;
    out.rdiag_abs[k] = std::abs(beta);

    // Apply to the trailing columns and downdate their norms.
    const auto col = [&at, k](std::size_t c) { return at.row(c).data() + k; };
    const auto update = [&](std::size_t b, std::size_t e) {
      detail::apply_reflector_cols(v, tau, m - k, b, e, col);
      for (std::size_t c = b; c < e; ++c) {
        // ||col||^2 -= R(k,c)^2, with a refresh when cancellation makes the
        // running value unreliable.
        const double* y = at.row(c).data();
        const double rkc = y[k];
        double updated = colnorm2[c] - rkc * rkc;
        if (updated < 0.05 * colnorm2_ref[c] || updated <= 0.0) {
          double s2 = 0.0;
          for (std::size_t i = k + 1; i < m; ++i) s2 += y[i] * y[i];
          updated = s2;
          colnorm2_ref[c] = s2;
        }
        colnorm2[c] = updated;
      }
    };
    detail::for_each_tile(k + 1, n, 4 * (m - k), update);
  }
  out.qr = at.transposed();
  return out;
}

std::size_t qrcp_rank(const QrcpResult& f, double abs_tol) {
  if (f.rdiag_abs.empty()) return 0;
  double tol = abs_tol;
  if (tol < 0.0) {
    const double dim = static_cast<double>(std::max(f.qr.rows(), f.qr.cols()));
    tol = dim * std::numeric_limits<double>::epsilon() * f.rdiag_abs.front();
  }
  std::size_t r = 0;
  for (double d : f.rdiag_abs) {
    if (d > tol) ++r;
    else break;  // rdiag is (approximately) non-increasing under pivoting
  }
  return r;
}

}  // namespace repro::linalg
