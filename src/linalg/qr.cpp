#include "linalg/qr.h"

#include <algorithm>

#include "linalg/column_kernels.h"
#include "util/telemetry.h"

namespace repro::linalg {

// repro-lint: allow(contracts) -- Householder QR exists for every shape
QrFactors qr_factor(Matrix a) {
  const util::telemetry::Span span("linalg.qr");
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t k = std::min(m, n);
  util::telemetry::count("linalg.qr.flops", detail::reflector_flops(m, n, k));
  QrFactors f;
  f.tau.assign(k, 0.0);
  Matrix at = a.transposed();  // row c = column c of A
  for (std::size_t j = 0; j < k; ++j) {
    double* v = at.row(j).data() + j;
    double tau = 0.0;
    const double beta = detail::make_reflector({v, m - j}, tau);
    // Apply H = I - tau v v^T to the trailing columns.
    const auto col = [&at, j](std::size_t c) { return at.row(c).data() + j; };
    const auto update = [&](std::size_t b, std::size_t e) {
      detail::apply_reflector_cols(v, tau, m - j, b, e, col);
    };
    if (tau != 0.0) detail::for_each_tile(j + 1, n, 4 * (m - j), update);
    v[0] = beta;
    f.tau[j] = tau;
  }
  f.qr = at.transposed();
  return f;
}

Matrix qr_thin_q(const QrFactors& f) {
  const util::telemetry::Span span("linalg.qr");
  const std::size_t m = f.qr.rows();
  const std::size_t k = f.tau.size();
  // Column c of Q takes reflectors 0..c: as many as a trailing update of
  // k + 1 columns.
  util::telemetry::count("linalg.qr.flops",
                         detail::reflector_flops(m, k + 1, k));
  // Reflector j, contiguous as row j of vt: vt(j, i) = v_j[i] for i > j.
  Matrix vt(k, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < std::min(i, k); ++j) vt(j, i) = f.qr(i, j);
  }
  // Column c of Q, formed as row c of qt: Q e_c = H_0 ... H_c e_c, since
  // each H_j with j > c acts on rows j.. where e_c is exactly zero.
  Matrix qt(k, m);
  detail::for_each_tile(0, k, 2 * m * k, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) qt(c, c) = 1.0;
    for (std::size_t j = e; j-- > 0;) {
      if (f.tau[j] == 0.0) continue;
      const auto col = [&qt, j](std::size_t c) { return qt.row(c).data() + j; };
      detail::apply_reflector_cols(vt.row(j).data() + j, f.tau[j], m - j,
                                   std::max(b, j), e, col);
    }
  });
  return qt.transposed();
}

Matrix qr_r(const QrFactors& f) {
  const std::size_t k = f.tau.size();
  Matrix r(k, f.qr.cols());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < f.qr.cols(); ++j) r(i, j) = f.qr(i, j);
  }
  return r;
}

}  // namespace repro::linalg
