#include "core/guardband.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/mc_sampler.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace repro::core {

// The eps-vs-remaining size precondition is validated unconditionally just
// below in every build; a contract would duplicate it.
// repro-lint: allow(contracts)
GuardbandReport guardband_analysis(const variation::VariationModel& model,
                                   const LinearPredictor& predictor,
                                   const linalg::Vector& per_path_eps,
                                   double t_cons, double epsilon,
                                   const McOptions& options) {
  const std::size_t n_rem = predictor.remaining.size();
  if (per_path_eps.size() != n_rem) {
    throw std::invalid_argument("guardband_analysis: eps size mismatch");
  }
  GuardbandReport rep;
  rep.epsilon = epsilon;
  for (double e : per_path_eps) {
    rep.avg_guardband += e;
    rep.max_guardband = std::max(rep.max_guardband, e);
  }
  if (n_rem > 0) rep.avg_guardband /= static_cast<double>(n_rem);

  const McSampler sampler(model, predictor);
  sampler.count(options.samples);

  // Accumulate MC metrics inline (shares samples with the detection counts).
  rep.mc.eps_max.assign(n_rem, 0.0);
  rep.mc.eps_mean.assign(n_rem, 0.0);

  // One sequential generator, each sample's parameters drawn consecutively,
  // so the samples do not depend on the block size.
  util::Rng rng(options.seed);
  McSampler::Block blk = sampler.block();
  linalg::Vector d(McSampler::kBlock), pred(McSampler::kBlock);
  for (std::size_t s = 0; s < options.samples; s += McSampler::kBlock) {
    sampler.draw(rng, options.samples - s, blk);
    for (std::size_t i = 0; i < n_rem; ++i) {
      sampler.remaining(i, blk, d);
      predict_row(predictor.coef, i, blk, pred);
      const double mu_i = predictor.mu_rem[i];
      const double guard = 1.0 - per_path_eps[i];
      for (std::size_t j = 0; j < blk.width; ++j) {
        const double t = mu_i + d[j];
        const double p = mu_i + pred[j];
        const double rel = std::abs(p - t) / std::abs(t);
        rep.mc.eps_max[i] = std::max(rep.mc.eps_max[i], rel);
        rep.mc.eps_mean[i] += rel;

        const bool fails = t > t_cons;
        const bool flag = (guard > 0.0) ? (p / guard > t_cons) : true;
        if (fails) ++rep.true_fails;
        if (flag) ++rep.flagged;
        if (fails && !flag) ++rep.missed;
        if (flag && !fails) ++rep.false_alarms;
      }
    }
  }
  rep.observations = options.samples * n_rem;
  finish_metrics(rep.mc, options.samples);
  return rep;
}

AdaptiveGuardband adaptive_guardband(std::span<const double> base_sigma_ps,
                                     std::span<const double> shift_var_ps2,
                                     std::span<const double> mu_rem_ps,
                                     double kappa) {
  REPRO_CHECK_DIM(base_sigma_ps.size(), shift_var_ps2.size(),
                  "adaptive_guardband: base sigmas vs shift variances");
  REPRO_CHECK_DIM(base_sigma_ps.size(), mu_rem_ps.size(),
                  "adaptive_guardband: base sigmas vs nominal delays");
  AdaptiveGuardband g;
  const std::size_t n = base_sigma_ps.size();
  if (n == 0 || base_sigma_ps.size() != shift_var_ps2.size() ||
      base_sigma_ps.size() != mu_rem_ps.size()) {
    return g;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double base2 = base_sigma_ps[i] * base_sigma_ps[i];
    const double q = std::max(0.0, shift_var_ps2[i]);
    const double var = base2 + q;
    const double sigma = std::sqrt(var);
    // |mu| == 0 cannot happen for a real path delay; guard the division so a
    // degenerate synthetic input degrades to "no guard-band" per path
    // instead of an inf that poisons the mean.
    const double mu = std::abs(mu_rem_ps[i]);
    const double eps = (mu > 0.0) ? kappa * sigma / mu : 0.0;
    g.eps += eps;
    g.max_eps = std::max(g.max_eps, eps);
    g.mean_sigma_ps += sigma;
    g.shift_share += (var > 0.0) ? q / var : 0.0;
  }
  const auto dn = static_cast<double>(n);
  g.eps /= dn;
  g.mean_sigma_ps /= dn;
  g.shift_share /= dn;
  return g;
}

}  // namespace repro::core
