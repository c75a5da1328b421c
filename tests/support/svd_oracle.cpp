#include "svd_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/gemm.h"
#include "linalg/qr_colpivot.h"

namespace repro::test {

using linalg::Matrix;
using linalg::Vector;

namespace {

double sign_like(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

// Golub–Reinsch SVD of an m x n matrix with m >= n is the classical
// formulation; this implementation also tolerates m < n via the transpose
// wrapper in svd().  `a` is overwritten with U (m x n); w receives the n
// singular values; v (n x n) receives the right singular vectors.
bool golub_reinsch(Matrix& a, Vector& w, Matrix& v, bool want_uv) {
  const int m = static_cast<int>(a.rows());
  const int n = static_cast<int>(a.cols());
  const double eps = std::numeric_limits<double>::epsilon();
  w.assign(n, 0.0);
  if (want_uv) v = Matrix(n, n);
  Vector rv1(n, 0.0);

  // --- Householder bidiagonalization ---
  double g = 0.0, scale = 0.0, anorm = 0.0;
  int l = 0;
  for (int i = 0; i < n; ++i) {
    l = i + 2;
    rv1[i] = scale * g;
    g = scale = 0.0;
    double s = 0.0;
    if (i < m) {
      for (int k = i; k < m; ++k) scale += std::abs(a(k, i));
      if (scale != 0.0) {
        for (int k = i; k < m; ++k) {
          a(k, i) /= scale;
          s += a(k, i) * a(k, i);
        }
        double f = a(i, i);
        g = -sign_like(std::sqrt(s), f);
        const double h = f * g - s;
        a(i, i) = f - g;
        for (int j = l - 1; j < n; ++j) {
          s = 0.0;
          for (int k = i; k < m; ++k) s += a(k, i) * a(k, j);
          f = s / h;
          for (int k = i; k < m; ++k) a(k, j) += f * a(k, i);
        }
        for (int k = i; k < m; ++k) a(k, i) *= scale;
      }
    }
    w[i] = scale * g;
    g = scale = 0.0;
    s = 0.0;
    if (i + 1 <= m && i + 1 != n) {
      for (int k = l - 1; k < n; ++k) scale += std::abs(a(i, k));
      if (scale != 0.0) {
        for (int k = l - 1; k < n; ++k) {
          a(i, k) /= scale;
          s += a(i, k) * a(i, k);
        }
        double f = a(i, l - 1);
        g = -sign_like(std::sqrt(s), f);
        const double h = f * g - s;
        a(i, l - 1) = f - g;
        for (int k = l - 1; k < n; ++k) rv1[k] = a(i, k) / h;
        for (int j = l - 1; j < m; ++j) {
          s = 0.0;
          for (int k = l - 1; k < n; ++k) s += a(j, k) * a(i, k);
          for (int k = l - 1; k < n; ++k) a(j, k) += s * rv1[k];
        }
        for (int k = l - 1; k < n; ++k) a(i, k) *= scale;
      }
    }
    anorm = std::max(anorm, std::abs(w[i]) + std::abs(rv1[i]));
  }

  // --- Accumulate right-hand transformations ---
  if (want_uv) {
    for (int i = n - 1; i >= 0; --i) {
      if (i < n - 1) {
        if (g != 0.0) {
          for (int j = l; j < n; ++j) v(j, i) = (a(i, j) / a(i, l)) / g;
          for (int j = l; j < n; ++j) {
            double s = 0.0;
            for (int k = l; k < n; ++k) s += a(i, k) * v(k, j);
            for (int k = l; k < n; ++k) v(k, j) += s * v(k, i);
          }
        }
        for (int j = l; j < n; ++j) v(i, j) = v(j, i) = 0.0;
      }
      v(i, i) = 1.0;
      g = rv1[i];
      l = i;
    }
  }

  // --- Accumulate left-hand transformations ---
  if (want_uv) {
    for (int i = std::min(m, n) - 1; i >= 0; --i) {
      l = i + 1;
      g = w[i];
      for (int j = l; j < n; ++j) a(i, j) = 0.0;
      if (g != 0.0) {
        g = 1.0 / g;
        for (int j = l; j < n; ++j) {
          double s = 0.0;
          for (int k = l; k < m; ++k) s += a(k, i) * a(k, j);
          const double f = (s / a(i, i)) * g;
          for (int k = i; k < m; ++k) a(k, j) += f * a(k, i);
        }
        for (int j = i; j < m; ++j) a(j, i) *= g;
      } else {
        for (int j = i; j < m; ++j) a(j, i) = 0.0;
      }
      a(i, i) += 1.0;
    }
  }

  // --- Diagonalization of the bidiagonal form ---
  const int max_iterations = 60;
  for (int k = n - 1; k >= 0; --k) {
    for (int its = 0; its < max_iterations; ++its) {
      bool flag = true;
      int nm = 0;
      int ll = 0;
      for (ll = k; ll >= 0; --ll) {
        nm = ll - 1;
        if (ll == 0 || std::abs(rv1[ll]) <= eps * anorm) {
          flag = false;
          break;
        }
        if (std::abs(w[nm]) <= eps * anorm) break;
      }
      if (flag) {
        // Cancellation of rv1[ll] for w[nm] ~ 0.
        double c = 0.0, s = 1.0;
        for (int i = ll; i < k + 1; ++i) {
          double f = s * rv1[i];
          rv1[i] = c * rv1[i];
          if (std::abs(f) <= eps * anorm) break;
          g = w[i];
          double h = std::hypot(f, g);
          w[i] = h;
          h = 1.0 / h;
          c = g * h;
          s = -f * h;
          if (want_uv) {
            for (int j = 0; j < m; ++j) {
              const double y = a(j, nm);
              const double z = a(j, i);
              a(j, nm) = y * c + z * s;
              a(j, i) = z * c - y * s;
            }
          }
        }
      }
      double z = w[k];
      if (ll == k) {
        // Converged; enforce non-negative singular value.
        if (z < 0.0) {
          w[k] = -z;
          if (want_uv) {
            for (int j = 0; j < n; ++j) v(j, k) = -v(j, k);
          }
        }
        break;
      }
      if (its == max_iterations - 1) return false;

      // Shift from bottom 2x2 minor.
      double x = w[ll];
      nm = k - 1;
      double y = w[nm];
      g = rv1[nm];
      double h = rv1[k];
      double f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
      g = std::hypot(f, 1.0);
      f = ((x - z) * (x + z) + h * ((y / (f + sign_like(g, f))) - h)) / x;
      double c = 1.0, s = 1.0;
      for (int j = ll; j <= nm; ++j) {
        const int i = j + 1;
        g = rv1[i];
        y = w[i];
        h = s * g;
        g = c * g;
        z = std::hypot(f, h);
        rv1[j] = z;
        c = f / z;
        s = h / z;
        f = x * c + g * s;
        g = g * c - x * s;
        h = y * s;
        y *= c;
        if (want_uv) {
          for (int jj = 0; jj < n; ++jj) {
            x = v(jj, j);
            z = v(jj, i);
            v(jj, j) = x * c + z * s;
            v(jj, i) = z * c - x * s;
          }
        }
        z = std::hypot(f, h);
        w[j] = z;
        if (z != 0.0) {
          z = 1.0 / z;
          c = f * z;
          s = h * z;
        }
        f = c * g + s * y;
        x = c * y - s * g;
        if (want_uv) {
          for (int jj = 0; jj < m; ++jj) {
            y = a(jj, j);
            z = a(jj, i);
            a(jj, j) = y * c + z * s;
            a(jj, i) = z * c - y * s;
          }
        }
      }
      rv1[ll] = 0.0;
      rv1[k] = f;
      w[k] = x;
    }
  }
  return true;
}

// Sorts singular values descending, permuting U/V columns accordingly.
void sort_descending(SvdResult& r, bool want_uv) {
  const std::size_t k = r.s.size();
  std::vector<int> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return r.s[a] > r.s[b]; });
  Vector s_sorted(k);
  for (std::size_t i = 0; i < k; ++i) s_sorted[i] = r.s[order[i]];
  if (want_uv) {
    Matrix u_sorted(r.u.rows(), k), v_sorted(r.v.rows(), k);
    for (std::size_t i = 0; i < k; ++i) {
      u_sorted.set_column(i, r.u.column(order[i]));
      v_sorted.set_column(i, r.v.column(order[i]));
    }
    r.u = std::move(u_sorted);
    r.v = std::move(v_sorted);
  }
  r.s = std::move(s_sorted);
}

}  // namespace

// repro-lint: allow(contracts) -- the SVD exists for every shape
SvdResult svd(Matrix a, bool want_uv) {
  SvdResult out;
  const bool transposed = a.rows() < a.cols();
  if (transposed) a = a.transposed();

  Matrix v;
  out.converged = golub_reinsch(a, out.s, v, want_uv);
  if (want_uv) {
    if (transposed) {
      out.u = std::move(v);  // U of A = V of A^T
      out.v = std::move(a);
    } else {
      out.u = std::move(a);
      out.v = std::move(v);
    }
  } else {
    out.u = Matrix();
    out.v = Matrix();
  }
  sort_descending(out, want_uv);
  return out;
}

std::size_t svd_rank(const SvdResult& f, std::size_t m, std::size_t n,
                     double rel_tol) {
  if (f.s.empty() || f.s.front() == 0.0) return 0;
  const double tol =
      (rel_tol >= 0.0)
          ? rel_tol * f.s.front()
          : static_cast<double>(std::max(m, n)) *
                std::numeric_limits<double>::epsilon() * f.s.front();
  std::size_t r = 0;
  for (double sv : f.s) {
    if (sv > tol) ++r;
  }
  return r;
}

Matrix svd_reconstruct(const SvdResult& f) {
  Matrix us = f.u;
  for (std::size_t j = 0; j < f.s.size(); ++j) {
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= f.s[j];
  }
  return linalg::multiply_bt(us, f.v);
}

SvdSelector::SvdSelector(const Matrix& a)
    : f_(svd(a)), rank_(svd_rank(f_, a.rows(), a.cols())) {
  if (!f_.converged) {
    throw std::runtime_error("SvdSelector: SVD did not converge");
  }
}

std::vector<int> SvdSelector::select(std::size_t r) const {
  const std::size_t n = f_.u.rows();
  if (r == 0 || r > rank_ || r > n) {
    throw std::invalid_argument("SvdSelector::select: bad r");
  }
  Matrix urt(r, n);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < n; ++j) urt(i, j) = f_.u(j, i);
  }
  const linalg::QrcpResult qr = linalg::qr_colpivot(std::move(urt), r);
  return {qr.perm.begin(), qr.perm.begin() + static_cast<std::ptrdiff_t>(r)};
}

}  // namespace repro::test
