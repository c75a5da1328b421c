// Algorithm 1: representative path selection under an error tolerance.
//
//   1. r = rank(A); select r paths exactly (eps_r = 0).
//   2. While eps_r <= eps: r -= 1; select r paths (Algorithm 2); recompute
//      eps_r.  The answer is the smallest r whose error stays within eps.
//
// Three drivers are provided: the paper-verbatim linear decrement, a
// bisection driver exploiting that eps_r is (numerically) non-increasing in
// r (O(log rank) candidates instead of O(rank) — the default for large
// instances), and a greedy prefix sweep that swaps Algorithm 2's QRCP
// selection for the nested pivoted-Cholesky order, which makes every
// candidate r a prefix of one fixed order and prices ALL of them in a
// single O(n^2 rank) pass (see selection_error_sweep).  All share one
// SubsetSelector (a factorization of the smaller Gram side of A, never a
// dense SVD) and one Gram matrix W = A A^T.
#pragma once

#include <cstddef>
#include <vector>

#include "core/error_model.h"
#include "core/subset_select.h"
#include "linalg/matrix.h"

namespace repro::core {

enum class SelectionStrategy {
  kLinearDecrement,  // paper Algorithm 1, verbatim
  kBisection,        // same result up to error-monotonicity noise, much faster
  kGreedySweep,      // nested greedy order + one prefix sweep over all r;
                     // representatives may differ from the QRCP route (it is
                     // the select_greedy heuristic made end-to-end cheap)
};

struct PathSelectionOptions {
  double epsilon = 0.05;  // tolerance, fraction of Tcons
  double kappa = 3.0;     // worst-case multiplier: WC(y) = kappa * std(y)
  SelectionStrategy strategy = SelectionStrategy::kBisection;
  std::size_t min_r = 1;
};

struct PathSelectionResult {
  std::vector<int> representatives;  // row indices into A (pivot order)
  std::size_t exact_rank = 0;        // rank(A) = exact-selection size
  double eps_r = 0.0;                // achieved worst-case error fraction
  SelectionErrors errors;            // per-remaining-path analytic errors
  std::size_t candidates_evaluated = 0;
};

// Selects representative paths from A (rows = target paths).  `gram` may be
// passed in when precomputed (A A^T); pass nullptr to compute internally.
PathSelectionResult select_representative_paths(
    const linalg::Matrix& a, double t_cons, const PathSelectionOptions& options,
    const linalg::Matrix* gram = nullptr);

// Same, reusing an existing SubsetSelector (shared factorization).
PathSelectionResult select_representative_paths(
    const SubsetSelector& selector, const linalg::Matrix& gram, double t_cons,
    const PathSelectionOptions& options);

}  // namespace repro::core
