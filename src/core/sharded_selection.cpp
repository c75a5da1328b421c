#include "core/sharded_selection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/clustering.h"
#include "core/subset_select.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/trsm.h"
#include "util/contracts.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

double policy_weight(const PathPanelSource& source,
                     const ShardedSelectionOptions& options, int id) {
  return options.policy == ShardPolicy::kGateBalanced ? source.path_weight(id)
                                                      : 1.0;
}

std::size_t desired_shards(std::size_t pool, std::size_t explicit_shards,
                           std::size_t target) {
  std::size_t s = explicit_shards;
  if (s == 0) s = (pool + target - 1) / std::max<std::size_t>(target, 1);
  return std::min(std::max<std::size_t>(s, 1), pool);
}

// Materializes the panel for `ids` under a budget lease and returns it.
linalg::Matrix leased_panel(const PathPanelSource& source,
                            std::span<const int> ids, PanelBudget* budget,
                            PanelLease& lease) {
  lease = PanelLease(budget, panel_bytes(ids.size(), source.params()));
  linalg::Matrix panel(ids.size(), source.params());
  source.fill_rows(ids, panel);
  return panel;
}

struct ShardSelection {
  std::vector<int> representatives;  // global ids
  ShardStats stats;
};

// Algorithm 1 on one shard: shard-local panel + SYRK Gram, greedy-sweep
// driver at the tightened tolerance, representatives mapped back to global
// ids.  Runs inside the shard-level parallel_for — no telemetry calls here;
// stats are flushed by the orchestrator after the parallel region.
ShardSelection select_one_shard(const PathPanelSource& source,
                                const std::vector<int>& members, double weight,
                                double t_cons,
                                const PathSelectionOptions& shard_opts,
                                PanelBudget* budget) {
  util::Stopwatch timer;
  ShardSelection out;
  out.stats.paths = members.size();
  out.stats.weight = weight;
  if (members.size() == 1) {
    out.representatives = members;
    out.stats.representatives = 1;
    out.stats.seconds = timer.seconds();
    return out;
  }
  PanelLease panel_lease;
  const linalg::Matrix a_s = leased_panel(source, members, budget, panel_lease);
  PanelLease gram_lease(budget, panel_bytes(a_s.rows(), a_s.rows()));
  const linalg::Matrix w = linalg::gram(a_s);
  // Shard panels are tall (paths >> params): the selector factors the small
  // A^T A side for the rank, and the greedy-sweep driver pivots on W.
  const SubsetSelector selector(a_s, w);
  const PathSelectionResult sel =
      select_representative_paths(selector, w, t_cons, shard_opts);
  out.representatives.reserve(sel.representatives.size());
  for (int local : sel.representatives) {
    out.representatives.push_back(members[static_cast<std::size_t>(local)]);
  }
  std::sort(out.representatives.begin(), out.representatives.end());
  out.stats.representatives = out.representatives.size();
  out.stats.seconds = timer.seconds();
  return out;
}

struct VerifyOutcome {
  double eps_r = 0.0;
  // (eps, global id) of every non-representative path, in pool order.
  std::vector<std::pair<double, int>> residuals;
  std::size_t violators = 0;  // residuals above epsilon
  std::size_t blocks = 0;
};

// Streamed global verification: prices the current selection against every
// path of the pool without materializing more than one block panel at a
// time.  Var(Delta_i) = ||a_i||^2 - ||L^{-1} A_R a_i||^2 with S = A_R A_R^T
// = L L^T; per block that is one panel fill, one cross GEMM and one
// multi-RHS trsm.  Serial over blocks — the kernels inside are
// thread-count-invariant, so the outcome is too.
VerifyOutcome verify_selection(const PathPanelSource& source,
                               const std::vector<int>& reps, double t_cons,
                               double kappa, double epsilon,
                               std::size_t block_rows, PanelBudget* budget) {
  const std::size_t n = source.paths();
  const std::size_t m = source.params();
  const std::size_t r = reps.size();

  PanelLease rep_lease;
  const linalg::Matrix a_r = leased_panel(source, reps, budget, rep_lease);
  const linalg::RegularizedChol chol = [&] {
    PanelLease gram_lease(budget, panel_bytes(r, r));
    return linalg::chol_factor_regularized(linalg::gram(a_r));
  }();
  if (!chol.factors.ok) {
    throw std::runtime_error(
        "select_paths_sharded: representative Gram not factorizable");
  }

  VerifyOutcome out;
  out.residuals.reserve(n - r);
  const std::size_t block = std::max<std::size_t>(block_rows, 1);
  std::vector<int> ids(std::min(block, n));
  linalg::Matrix panel(ids.size(), m);
  PanelLease block_lease(budget, panel_bytes(ids.size(), m));
  for (std::size_t start = 0; start < n; start += block) {
    const std::size_t stop = std::min(n, start + block);
    const std::size_t b = stop - start;
    ids.resize(b);
    for (std::size_t j = 0; j < b; ++j) {
      ids[j] = static_cast<int>(start + j);
    }
    if (panel.rows() != b) panel = linalg::Matrix(b, m);
    source.fill_rows(ids, panel);
    // cross(i, j) = <rep row i, pool row start+j>; after the solve, column j
    // holds L^{-1} w_j.
    PanelLease cross_lease(budget, panel_bytes(r, b));
    linalg::Matrix cross = linalg::multiply_bt(a_r, panel);
    linalg::trsm_lower_inplace(chol.factors.l, cross);
    for (std::size_t j = 0; j < b; ++j) {
      const int id = ids[j];
      if (std::binary_search(reps.begin(), reps.end(), id)) continue;
      double var = linalg::dot(panel.row(j), panel.row(j));
      for (std::size_t i = 0; i < r; ++i) {
        var -= cross(i, j) * cross(i, j);
      }
      const double eps = kappa * std::sqrt(std::max(var, 0.0)) / t_cons;
      out.eps_r = std::max(out.eps_r, eps);
      if (eps > epsilon) ++out.violators;
      out.residuals.emplace_back(eps, id);
    }
    ++out.blocks;
  }
  return out;
}

// Error-descending, id tie-break: a total order, so any prefix a partial
// sort yields equals the full sort's.
bool worse_residual(const std::pair<double, int>& a,
                    const std::pair<double, int>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

}  // namespace
// The panel-source parameters carry their own fill contracts; pool and
// option validation below is unconditional in every build.
// repro-lint: allow(contracts)
ShardPlan plan_shards(const PathPanelSource& source,
                      std::span<const int> pool_ids,
                      const ShardedSelectionOptions& options,
                      PanelBudget* budget) {
  const std::size_t n = pool_ids.size();
  if (n == 0) throw std::invalid_argument("plan_shards: empty pool");
  const std::size_t m = source.params();
  const std::size_t shards =
      desired_shards(n, options.num_shards, options.target_shard_paths);

  ShardPlan plan;
  if (shards <= 1) {
    plan.members.emplace_back(pool_ids.begin(), pool_ids.end());
    plan.weight.push_back(0.0);
    for (int id : pool_ids) {
      plan.weight[0] += policy_weight(source, options, id);
    }
    plan.clusters_used = 1;
    return plan;
  }

  // 1. Deterministic evenly-spaced sample of the pool; spherical k-means on
  //    the sample discovers the direction structure without touching every
  //    row.
  const std::size_t sample =
      std::min(n, std::max<std::size_t>(options.sample_paths, shards));
  std::vector<int> sample_ids(sample);
  for (std::size_t j = 0; j < sample; ++j) {
    sample_ids[j] = pool_ids[(j * n) / sample];
  }
  linalg::Matrix centers;
  {
    PanelLease lease;
    const linalg::Matrix sample_panel =
        leased_panel(source, sample_ids, budget, lease);
    const std::size_t k = std::min(sample, shards);
    const std::vector<int> assign = cluster_rows_spherical(
        sample_panel, k, options.kmeans_iterations, options.seed);
    centers = spherical_centers(sample_panel, assign, k);
  }
  plan.clusters_used = centers.rows();

  // 2. Streamed assignment of the full pool to the nearest center (cosine;
  //    centers are unit length, so argmax over plain dot products — the row
  //    norm is a positive per-row constant).  Ties break to the lowest
  //    center index; zero rows land on center 0.  Serial over blocks.
  std::vector<std::vector<int>> cluster_members(centers.rows());
  std::vector<std::vector<double>> cluster_weights(centers.rows());
  {
    const std::size_t block = std::max<std::size_t>(options.block_rows, 1);
    std::vector<int> ids(std::min(block, n));
    linalg::Matrix panel(ids.size(), m);
    PanelLease block_lease(budget, panel_bytes(ids.size(), m));
    for (std::size_t start = 0; start < n; start += block) {
      const std::size_t stop = std::min(n, start + block);
      const std::size_t b = stop - start;
      ids.resize(b);
      for (std::size_t j = 0; j < b; ++j) ids[j] = pool_ids[start + j];
      if (panel.rows() != b) panel = linalg::Matrix(b, m);
      source.fill_rows(ids, panel);
      PanelLease sims_lease(budget, panel_bytes(b, centers.rows()));
      const linalg::Matrix sims = linalg::multiply_bt(panel, centers);
      for (std::size_t j = 0; j < b; ++j) {
        std::size_t arg = 0;
        double best = sims(j, 0);
        for (std::size_t c = 1; c < centers.rows(); ++c) {
          if (sims(j, c) > best) {
            best = sims(j, c);
            arg = c;
          }
        }
        cluster_members[arg].push_back(ids[j]);
        cluster_weights[arg].push_back(
            policy_weight(source, options, ids[j]));
      }
    }
  }

  // 3. Split oversized clusters into consecutive runs near the target size
  //    (cluster members are ascending, so runs stay direction-coherent),
  //    then pack runs onto the least-loaded shard by policy weight.
  struct Chunk {
    std::vector<int> ids;
    double weight = 0.0;
  };
  std::vector<Chunk> chunks;
  const std::size_t target = std::max<std::size_t>(1, (n + shards - 1) / shards);
  for (std::size_t c = 0; c < cluster_members.size(); ++c) {
    const std::vector<int>& ids = cluster_members[c];
    if (ids.empty()) continue;
    const std::size_t pieces = (ids.size() + target - 1) / target;
    const std::size_t per = (ids.size() + pieces - 1) / pieces;
    for (std::size_t start = 0; start < ids.size(); start += per) {
      const std::size_t stop = std::min(ids.size(), start + per);
      Chunk chunk;
      chunk.ids.assign(ids.begin() + static_cast<std::ptrdiff_t>(start),
                       ids.begin() + static_cast<std::ptrdiff_t>(stop));
      for (std::size_t j = start; j < stop; ++j) {
        chunk.weight += cluster_weights[c][j];
      }
      chunks.push_back(std::move(chunk));
    }
  }
  // Heaviest-first greedy packing; all ties break on the first member id /
  // lowest shard index, so the plan is a deterministic function of its
  // inputs.
  std::sort(chunks.begin(), chunks.end(), [](const Chunk& a, const Chunk& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.ids.front() < b.ids.front();
  });
  const std::size_t bins = std::min(shards, chunks.size());
  plan.members.resize(bins);
  plan.weight.assign(bins, 0.0);
  for (Chunk& chunk : chunks) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < bins; ++s) {
      if (plan.weight[s] < plan.weight[lightest]) lightest = s;
    }
    plan.weight[lightest] += chunk.weight;
    plan.members[lightest].insert(plan.members[lightest].end(),
                                  chunk.ids.begin(), chunk.ids.end());
  }
  for (std::vector<int>& members : plan.members) {
    std::sort(members.begin(), members.end());
  }
  return plan;
}

// Pool and tolerance validation below is unconditional in every build; the
// matrix-shaped preconditions live on the panel source's fill contract.
// repro-lint: allow(contracts)
ShardedSelectionResult select_paths_sharded(
    const PathPanelSource& source, double t_cons,
    const ShardedSelectionOptions& options) {
  if (t_cons <= 0.0) {
    throw std::invalid_argument(
        "select_paths_sharded: t_cons must be positive");
  }
  const std::size_t n = source.paths();
  if (n == 0) throw std::invalid_argument("select_paths_sharded: empty pool");

  PanelBudget budget;
  ShardedSelectionResult result;
  result.shards = 1;

  PathSelectionOptions shard_opts = options.selection;
  shard_opts.strategy = SelectionStrategy::kGreedySweep;
  shard_opts.epsilon =
      options.selection.epsilon * std::min(options.merge_epsilon_scale, 1.0);

  std::vector<int> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<int>(i);

  // PLAN + SELECT + recursive MERGE: shrink the pool level by level until it
  // fits the monolithic cap.
  std::size_t level = 0;
  while (true) {
    ShardedSelectionOptions level_opts = options;
    if (level > 0) level_opts.num_shards = 0;  // explicit count is level-0 only
    const std::size_t shards = desired_shards(
        pool.size(), level_opts.num_shards, level_opts.target_shard_paths);
    const bool must_shrink = pool.size() > options.merge_pool_cap;
    if (shards <= 1 || (!must_shrink && level > 0) ||
        (!must_shrink && options.num_shards <= 1)) {
      break;
    }

    ShardPlan plan;
    {
      util::telemetry::Span span("core.shard.plan");
      plan = plan_shards(source, pool, level_opts, &budget);
    }
    std::vector<ShardSelection> slots(plan.members.size());
    {
      util::telemetry::Span span("core.shard.select");
      // Memory cap: each in-flight shard leases its fill panel plus its
      // Gram, so unbounded parallelism makes the peak scale with the
      // worker count.  Process shards in waves sized so the widest
      // possible wave of working sets fits memory_cap_bytes (floor: one
      // shard).  Slots are indexed, so waves do not affect the result.
      std::size_t wave = plan.members.size();
      if (options.memory_cap_bytes > 0) {
        std::size_t max_ws = 1;
        for (const std::vector<int>& members : plan.members) {
          const std::size_t ws =
              panel_bytes(members.size(), source.params()) +
              panel_bytes(members.size(), members.size());
          max_ws = std::max(max_ws, ws);
        }
        wave = std::max<std::size_t>(1, options.memory_cap_bytes / max_ws);
      }
      for (std::size_t start = 0; start < plan.members.size(); start += wave) {
        const std::size_t stop =
            std::min(start + wave, plan.members.size());
        util::parallel_for(
            start, stop, 1, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t s = lo; s < hi; ++s) {
                slots[s] = select_one_shard(source, plan.members[s],
                                            plan.weight[s], t_cons,
                                            shard_opts, &budget);
              }
            });
      }
    }
    if (level == 0) {
      result.shards = plan.members.size();
      result.shard_stats.reserve(slots.size());
      for (const ShardSelection& slot : slots) {
        result.shard_stats.push_back(slot.stats);
      }
    }
    std::vector<int> merged;
    for (const ShardSelection& slot : slots) {
      merged.insert(merged.end(), slot.representatives.begin(),
                    slot.representatives.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    ++level;
    const bool shrank = merged.size() < pool.size();
    pool = std::move(merged);
    if (!shrank) break;  // selection saturated; recursing again cannot help
    if (pool.size() <= options.merge_pool_cap) break;
  }
  result.levels = level;
  result.union_paths = pool.size();

  // Final monolithic selection over the (now small) pool at full tolerance.
  {
    util::telemetry::Span span("core.shard.merge");
    if (pool.size() == 1) {
      result.representatives = pool;
    } else {
      PanelLease lease;
      const linalg::Matrix a_u = leased_panel(source, pool, &budget, lease);
      PanelLease gram_lease(&budget, panel_bytes(a_u.rows(), a_u.rows()));
      const linalg::Matrix w = linalg::gram(a_u);
      const SubsetSelector selector(a_u, w);
      const PathSelectionResult sel =
          select_representative_paths(selector, w, t_cons, options.selection);
      result.representatives.reserve(sel.representatives.size());
      for (int local : sel.representatives) {
        result.representatives.push_back(pool[static_cast<std::size_t>(local)]);
      }
      std::sort(result.representatives.begin(), result.representatives.end());
    }
  }

  // VERIFY + batched repair against the full pool.
  {
    util::telemetry::Span span("core.shard.verify");
    std::size_t blocks = 0;
    for (std::size_t round = 0;; ++round) {
      VerifyOutcome verdict = verify_selection(
          source, result.representatives, t_cons, options.selection.kappa,
          options.selection.epsilon, options.block_rows, &budget);
      blocks += verdict.blocks;
      result.eps_r = verdict.eps_r;
      std::vector<std::pair<double, int>>& res = verdict.residuals;
      result.tolerance_met = verdict.violators == 0;
      if (result.tolerance_met || round >= options.max_repair_rounds ||
          result.representatives.size() >= n) {
        std::sort(res.begin(), res.end(), worse_residual);
        result.backup_order.reserve(res.size());
        for (const auto& [eps, id] : res) result.backup_order.push_back(id);
        break;
      }
      // Promote the worst offenders in one batch; the next round
      // re-verifies with them included.
      const std::size_t take = std::min<std::size_t>(
          options.max_promotions_per_round, verdict.violators);
      std::partial_sort(res.begin(),
                        res.begin() + static_cast<std::ptrdiff_t>(take),
                        res.end(), worse_residual);
      for (std::size_t j = 0; j < take; ++j) {
        result.representatives.push_back(res[j].second);
      }
      std::sort(result.representatives.begin(), result.representatives.end());
      result.repair_promotions += take;
      ++result.repair_rounds;
    }
    util::telemetry::count("core.shard.blocks_streamed", blocks);
  }

  result.peak_panel_bytes = budget.peak();
  util::telemetry::count("core.shard.shards", result.shards);
  util::telemetry::count("core.shard.union_paths", result.union_paths);
  util::telemetry::count("core.shard.levels", result.levels);
  util::telemetry::count("core.shard.repair_promotions",
                         result.repair_promotions);
  util::telemetry::set_gauge("core.shard.peak_panel_bytes",
                             static_cast<double>(result.peak_panel_bytes));
  util::telemetry::set_gauge("core.shard.eps_r", result.eps_r);
  return result;
}

}  // namespace repro::core
