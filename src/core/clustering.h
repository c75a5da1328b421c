// Spherical k-means over the rows of a sensitivity matrix: the clustering
// step of paper Section 4.4 ("if the number of target paths is very large,
// we can apply a clustering procedure to form clusters of paths of smaller
// size for speedup").
//
// Paths are clustered by the direction of their sensitivity rows (cosine
// similarity), so paths correlated through shared segments and regions land
// together.  The sharded selection pipeline (core/sharded_selection.h) runs
// these helpers on a sample of the pool to plan its shards, then selects
// per shard and verifies and repairs against the full pool.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

// Spherical k-means over the rows of A.  Returns the cluster index per row;
// clusters are non-empty for k <= distinct nonzero rows.
std::vector<int> cluster_rows_spherical(const linalg::Matrix& a,
                                        std::size_t k, int iterations,
                                        std::uint64_t seed);

// Unit-length mean directions of the clusters in `assign` (values in
// [0, k)), with empty clusters dropped — the result has one row per
// non-empty cluster, in ascending cluster order.  Dropping empties matters
// for streamed assignment: a zero center has similarity 0 to everything and
// would capture every row whose best cosine is negative.  Used by the
// sharded pipeline to carry a k-means run on a sample out to the full pool.
linalg::Matrix spherical_centers(const linalg::Matrix& a,
                                 const std::vector<int>& assign,
                                 std::size_t k);

}  // namespace repro::core
