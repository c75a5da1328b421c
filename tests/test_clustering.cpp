#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/panel_source.h"
#include "core/path_selection.h"
#include "core/sharded_selection.h"
#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::core {
namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Rows drawn around `k` well-separated directions.
linalg::Matrix blobby_rows(std::size_t n, std::size_t m, std::size_t k,
                           double noise, std::uint64_t seed,
                           std::vector<int>* truth = nullptr) {
  util::Rng rng(seed);
  const linalg::Matrix dirs = random_matrix(k, m, seed + 1);
  linalg::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    if (truth) truth->push_back(static_cast<int>(c));
    const double scale = rng.uniform(0.5, 2.0);
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = scale * dirs(c, j) + noise * rng.normal();
    }
  }
  return a;
}

TEST(Clustering, AssignsEveryRow) {
  const linalg::Matrix a = blobby_rows(60, 12, 4, 0.05, 1);
  const auto assign = cluster_rows_spherical(a, 4, 16, 7);
  ASSERT_EQ(assign.size(), 60u);
  for (int c : assign) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
}

TEST(Clustering, RecoversSeparatedDirections) {
  std::vector<int> truth;
  const linalg::Matrix a = blobby_rows(90, 20, 3, 0.02, 2, &truth);
  const auto assign = cluster_rows_spherical(a, 3, 20, 9);
  // Same-truth rows must land in the same cluster (up to label permutation):
  // check pairwise consistency on a sample.
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < a.rows(); i += 3) {
    for (std::size_t j = i + 1; j < a.rows(); j += 7) {
      ++total;
      const bool same_truth = truth[i] == truth[j];
      const bool same_cluster = assign[i] == assign[j];
      if (same_truth == same_cluster) ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST(Clustering, BadKThrows) {
  const linalg::Matrix a = random_matrix(5, 4, 3);
  EXPECT_THROW((void)cluster_rows_spherical(a, 0, 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)cluster_rows_spherical(a, 6, 5, 1),
               std::invalid_argument);
}

TEST(Clustering, DeterministicForSeed) {
  const linalg::Matrix a = blobby_rows(40, 10, 4, 0.1, 4);
  EXPECT_EQ(cluster_rows_spherical(a, 4, 10, 42),
            cluster_rows_spherical(a, 4, 10, 42));
}

// Paper Section 4.4's clustered selection is the sharded pipeline over an
// in-memory pool: k-means plan, per-shard selection, merge, then a verify
// and repair pass against every path.
ShardedSelectionResult select_sharded(const linalg::Matrix& a,
                                      std::size_t shards, double epsilon) {
  ShardedSelectionOptions opt;
  opt.num_shards = shards;
  opt.selection.epsilon = epsilon;
  return select_paths_sharded(MatrixPanelSource(a), 2000.0, opt);
}

TEST(ShardedClustering, MeetsGlobalTolerance) {
  const linalg::Matrix a = blobby_rows(120, 30, 5, 0.05, 5);
  const ShardedSelectionResult r = select_sharded(a, 5, 0.05);
  EXPECT_TRUE(r.tolerance_met);
  EXPECT_LE(r.eps_r, 0.05);
  EXPECT_EQ(r.shards, 5u);
  // Representatives are valid, unique indices.
  std::set<int> uniq(r.representatives.begin(), r.representatives.end());
  EXPECT_EQ(uniq.size(), r.representatives.size());
  for (int i : r.representatives) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 120);
  }
}

TEST(ShardedClustering, ComparableSizeToDirectSelection) {
  const linalg::Matrix a = blobby_rows(150, 40, 6, 0.05, 6);
  PathSelectionOptions direct_opt;
  direct_opt.epsilon = 0.05;
  const PathSelectionResult direct =
      select_representative_paths(a, 2000.0, direct_opt);
  const ShardedSelectionResult sharded = select_sharded(a, 6, 0.05);
  // Sharding trades selection size for speed; it must stay within a small
  // factor of the direct answer.
  EXPECT_LE(sharded.representatives.size(),
            3 * direct.representatives.size() + 6);
}

TEST(ShardedClustering, SingleShardMatchesDirect) {
  const linalg::Matrix a = blobby_rows(50, 15, 3, 0.05, 7);
  const ShardedSelectionResult sharded = select_sharded(a, 1, 0.05);
  PathSelectionOptions direct_opt;
  direct_opt.epsilon = 0.05;
  const PathSelectionResult direct =
      select_representative_paths(a, 2000.0, direct_opt);
  std::vector<int> sorted_direct = direct.representatives;
  std::sort(sorted_direct.begin(), sorted_direct.end());
  EXPECT_EQ(sharded.representatives, sorted_direct);
  EXPECT_EQ(sharded.repair_promotions, 0u);
}

TEST(ShardedClustering, AutoShardCount) {
  const linalg::Matrix a = blobby_rows(60, 10, 3, 0.1, 8);
  ShardedSelectionOptions opt;  // num_shards = 0 -> ceil(n / target)
  opt.target_shard_paths = 20;
  opt.merge_pool_cap = 30;  // below n, so the automatic plan runs
  opt.selection.epsilon = 0.08;
  const ShardedSelectionResult r =
      select_paths_sharded(MatrixPanelSource(a), 2000.0, opt);
  EXPECT_EQ(r.shards, 3u);
  EXPECT_TRUE(r.tolerance_met);
  EXPECT_LE(r.eps_r, 0.08);
}

TEST(ShardedClustering, EmptySourceThrows) {
  const linalg::Matrix empty;
  EXPECT_THROW((void)select_paths_sharded(MatrixPanelSource(empty), 100.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
