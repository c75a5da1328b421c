// Sharded out-of-core representative-path selection.
//
// Algorithm 1 on a dense pool needs the n x m sensitivity matrix and an
// n x n Gram in one address space, capping n at tens of thousands.  This
// orchestrator scales the same selection to multi-million-path pools on one
// box by decomposition:
//
//   1. PLAN    — spherical k-means on a deterministic sample of the pool
//                yields direction clusters; cluster centers are carried out
//                to the full pool by streamed block assignment; clusters are
//                split to the target shard size and packed into shards under
//                a pluggable balance policy (path- or gate-balanced,
//                mirroring node-/edge-balanced graph splits).
//   2. SELECT  — Algorithm 1 (greedy-sweep driver) runs per shard in
//                parallel on the shared thread pool, each shard against its
//                own SYRK Gram panel; only shard-sized panels are ever
//                resident, never the full n x m matrix.  Per-shard tolerance
//                is tightened (merge_epsilon_scale) so the union stays
//                repairable.
//   3. MERGE   — the union of shard representatives is re-sharded and
//                re-selected recursively until it fits merge_pool_cap, then
//                selected monolithically at the full tolerance.
//   4. VERIFY  — the final selection is priced against the ENTIRE pool by a
//                streamed pass (per block: one panel fill, one cross GEMM
//                against the representative panel, one multi-RHS trsm),
//                using the identity Var(Delta_i) = ||a_i||^2 - ||L^{-1} A_R
//                a_i||^2.  Paths whose error exceeds eps are promoted into
//                the selection in batches until the global bound holds (or
//                max_repair_rounds is exhausted — tolerance_met reports
//                honestly).  The last pass's residuals, worst first, are
//                the backup order for dead representatives.
//
// Every materialized panel is leased against a PanelBudget, so the result
// carries the true peak resident panel footprint; bench_shard_scale gates it
// against the dense-matrix baseline in CI.  The pipeline is bit-identical
// across REPRO_THREADS settings: planning and verification are serial block
// loops over deterministic kernels, and per-shard selection is independent
// per shard with results written to indexed slots.  See DESIGN.md §14.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/panel_source.h"
#include "core/path_selection.h"

namespace repro::core {

enum class ShardPolicy {
  kPathBalanced,  // equalize path counts per shard
  kGateBalanced,  // equalize summed path_weight (e.g. gate counts) per shard
};

struct ShardedSelectionOptions {
  ShardPolicy policy = ShardPolicy::kPathBalanced;
  std::size_t num_shards = 0;           // 0 = auto: ceil(n / target_shard_paths)
  std::size_t target_shard_paths = 2000;
  std::size_t sample_paths = 4096;      // k-means planning sample size
  int kmeans_iterations = 12;
  std::uint64_t seed = 0x5eed10;
  std::size_t block_rows = 8192;        // streamed assignment / verify block
  std::size_t merge_pool_cap = 4000;    // largest pool selected monolithically
  double merge_epsilon_scale = 0.5;     // per-shard tolerance tightening
  std::size_t max_repair_rounds = 8;
  std::size_t max_promotions_per_round = 64;
  // Upper bound, in bytes, on the per-shard working sets (fill panel +
  // shard Gram) leased concurrently during SELECT: shards are processed in
  // waves sized so the sum of their working sets fits the cap, instead of
  // letting every pool worker lease one at once.  0 = uncapped (waves as
  // wide as the plan).  A cap below one shard's working set degrades to
  // serial shards — one working set is the floor, by construction.  The
  // merge level's monolithic selection is bounded separately by
  // merge_pool_cap^2, and the streamed verify pass by block_rows * m.
  std::size_t memory_cap_bytes = 0;
  PathSelectionOptions selection;       // epsilon / kappa for the global bound
};

struct ShardPlan {
  std::vector<std::vector<int>> members;  // per-shard global ids, ascending
  std::vector<double> weight;             // per-shard summed policy weight
  std::size_t clusters_used = 0;          // non-empty k-means clusters
};

struct ShardStats {
  std::size_t paths = 0;
  std::size_t representatives = 0;
  double weight = 0.0;
  double seconds = 0.0;
};

struct ShardedSelectionResult {
  std::vector<int> representatives;  // global path ids, ascending
  double eps_r = 0.0;                // verified against the FULL pool
  bool tolerance_met = false;        // eps_r <= selection.epsilon at exit
  std::size_t levels = 0;            // recursive merge levels run
  std::size_t shards = 0;            // level-0 shard count
  std::size_t union_paths = 0;       // union entering the final selection
  std::size_t repair_rounds = 0;
  std::size_t repair_promotions = 0;
  std::size_t peak_panel_bytes = 0;  // high-water resident panel footprint
  std::vector<ShardStats> shard_stats;  // level-0 shards only
  // Every non-representative id by its verified residual variance, worst
  // first (id tie-break).  The head is the next pivoted-Cholesky pivot given
  // the representatives, so this is the order to promote backups in.
  std::vector<int> backup_order;
};

// Partitions `pool_ids` (ascending global path ids) into shards; the plan is
// a pure function of the source contents, the pool, and the options — in
// particular it does not depend on the thread count.  `budget` (optional)
// accounts the sample and assignment panels.
ShardPlan plan_shards(const PathPanelSource& source,
                      std::span<const int> pool_ids,
                      const ShardedSelectionOptions& options,
                      PanelBudget* budget = nullptr);

// Runs the full plan/select/merge/verify pipeline over every path of
// `source`.  Peak resident panel memory is O(shard^2 + block_rows * m), not
// O(n * m).  Throws std::invalid_argument on an empty source or
// non-positive t_cons.
ShardedSelectionResult select_paths_sharded(
    const PathPanelSource& source, double t_cons,
    const ShardedSelectionOptions& options = {});

}  // namespace repro::core
