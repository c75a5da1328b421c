#include "core/clustering.h"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.h"
#include "util/rng.h"

namespace repro::core {
namespace {

void normalize_rows(linalg::Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double n = linalg::norm2(m.row(i));
    if (n > 0.0) linalg::scale(m.row(i), 1.0 / n);
  }
}

}  // namespace

// The only precondition (k in [1, rows]) is validated unconditionally just
// below in every build; a contract would duplicate it.
// repro-lint: allow(contracts)
std::vector<int> cluster_rows_spherical(const linalg::Matrix& a,
                                        std::size_t k, int iterations,
                                        std::uint64_t seed) {
  const std::size_t n = a.rows();
  if (k == 0 || k > n) {
    throw std::invalid_argument("cluster_rows_spherical: bad k");
  }
  linalg::Matrix rows = a;
  normalize_rows(rows);

  util::Rng rng(seed);
  // k-means++-style seeding on cosine distance: first center random, each
  // next center the row farthest (in expectation) from current centers.
  linalg::Matrix centers(k, a.cols());
  std::vector<double> best_sim(n, -2.0);
  {
    const std::size_t first = rng.uniform_index(n);
    centers.set_row(0, rows.row(first));
    for (std::size_t c = 1; c < k; ++c) {
      double worst = 2.0;
      std::size_t pick = 0;
      for (std::size_t i = 0; i < n; ++i) {
        best_sim[i] = std::max(best_sim[i],
                               linalg::dot(rows.row(i), centers.row(c - 1)));
        // Prefer rows least similar to any existing center; small random
        // tie-break keeps the seeding from being adversarially determined.
        const double key = best_sim[i] + 1e-9 * rng.uniform();
        if (key < worst) {
          worst = key;
          pick = i;
        }
      }
      centers.set_row(c, rows.row(pick));
    }
  }

  std::vector<int> assign(n, 0);
  for (int it = 0; it < iterations; ++it) {
    // Assign: max cosine similarity (rows and centers unit length).
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = -2.0;
      int arg = assign[i];
      for (std::size_t c = 0; c < k; ++c) {
        const double s = linalg::dot(rows.row(i), centers.row(c));
        if (s > best) {
          best = s;
          arg = static_cast<int>(c);
        }
      }
      if (arg != assign[i]) {
        assign[i] = arg;
        changed = true;
      }
    }
    if (!changed && it > 0) break;
    // Update: mean direction per cluster; reseed empty clusters.
    centers = linalg::Matrix(k, a.cols());
    std::vector<std::size_t> count(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(1.0, rows.row(i),
                   centers.row(static_cast<std::size_t>(assign[i])));
      ++count[static_cast<std::size_t>(assign[i])];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        centers.set_row(c, rows.row(rng.uniform_index(n)));
        continue;
      }
      const double nrm = linalg::norm2(centers.row(c));
      if (nrm > 0.0) linalg::scale(centers.row(c), 1.0 / nrm);
    }
  }
  return assign;
}

linalg::Matrix spherical_centers(const linalg::Matrix& a,
                                 const std::vector<int>& assign,
                                 std::size_t k) {
  REPRO_CHECK_DIM(assign.size(), a.rows(),
                  "spherical_centers: assignment vs rows");
  if (k == 0) throw std::invalid_argument("spherical_centers: k == 0");
  linalg::Matrix sums(k, a.cols());
  std::vector<std::size_t> count(k, 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const int c = assign[i];
    if (c < 0 || static_cast<std::size_t>(c) >= k) {
      throw std::out_of_range("spherical_centers: cluster index");
    }
    // Accumulate unit directions so large rows don't dominate the mean.
    const double nrm = linalg::norm2(a.row(i));
    if (nrm > 0.0) {
      linalg::axpy(1.0 / nrm, a.row(i), sums.row(static_cast<std::size_t>(c)));
    }
    ++count[static_cast<std::size_t>(c)];
  }
  std::size_t nonempty = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (count[c] > 0) ++nonempty;
  }
  linalg::Matrix centers(std::max<std::size_t>(nonempty, 1), a.cols());
  std::size_t out = 0;
  for (std::size_t c = 0; c < k; ++c) {
    if (count[c] == 0) continue;
    const double nrm = linalg::norm2(sums.row(c));
    centers.set_row(out, sums.row(c));
    if (nrm > 0.0) linalg::scale(centers.row(out), 1.0 / nrm);
    ++out;
  }
  return centers;
}

}  // namespace repro::core
