#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/mc_sampler.h"
#include "linalg/sparse_rows.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {

McMetrics evaluate_predictor(const variation::VariationModel& model,
                             const LinearPredictor& predictor,
                             const McOptions& options) {
  const std::size_t n_rem = predictor.remaining.size();
  if (n_rem == 0) throw std::invalid_argument("evaluate_predictor: no paths");
  const util::telemetry::Span span("core.mc.evaluate");
  util::telemetry::count("core.mc.samples", options.samples);
  const McSampler sampler(model, predictor);
  sampler.count(options.samples);

  McMetrics out;
  out.eps_max.assign(n_rem, 0.0);
  out.eps_mean.assign(n_rem, 0.0);

  // Batch-parallel sampling over fixed-size chunks.  Sample j draws its
  // normals from util::Rng::stream(seed, j) — a stream that depends only on
  // the global sample index — and every A x and prediction element is summed
  // in a fixed order (core/mc_sampler.h), so each sample's error is
  // independent of both the chunk size and the thread count.  Each chunk
  // accumulates into its own slot and the partials are reduced in chunk
  // order afterwards, which keeps the floating-point summation order fixed:
  // eps_max / eps_mean / e1 / e2 are bit-identical for 1..N threads.
  const std::size_t chunk = std::max<std::size_t>(1, options.chunk);
  const std::size_t nchunks = (options.samples + chunk - 1) / chunk;
  std::vector<std::vector<double>> part_max(nchunks), part_sum(nchunks);
  util::parallel_for(0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    McSampler::Block blk = sampler.block();
    linalg::Vector d(McSampler::kBlock), pred(McSampler::kBlock);
    for (std::size_t ci = cb; ci < ce; ++ci) {
      const std::size_t s0 = ci * chunk;
      const std::size_t s1 = std::min(s0 + chunk, options.samples);
      std::vector<double>& pmax = part_max[ci];
      std::vector<double>& psum = part_sum[ci];
      pmax.assign(n_rem, 0.0);
      psum.assign(n_rem, 0.0);
      for (std::size_t s = s0; s < s1; s += McSampler::kBlock) {
        sampler.draw(options.seed, s, s1 - s, blk);
        // Each remaining path's true delays and predictions are formed and
        // scored together: the model means enter both sides additively
        // (d = mu + A x), so only the relative error's denominator needs
        // the full delay.
        for (std::size_t i = 0; i < n_rem; ++i) {
          sampler.remaining(i, blk, d);
          predict_row(predictor.coef, i, blk, pred);
          const double mu_i = predictor.mu_rem[i];
          for (std::size_t j = 0; j < blk.width; ++j) {
            const double t = mu_i + d[j];
            const double p = mu_i + pred[j];
            const double rel = std::abs(p - t) / std::abs(t);
            pmax[i] = std::max(pmax[i], rel);
            psum[i] += rel;
          }
        }
      }
    }
  });
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    for (std::size_t i = 0; i < n_rem; ++i) {
      out.eps_max[i] = std::max(out.eps_max[i], part_max[ci][i]);
      out.eps_mean[i] += part_sum[ci][i];
    }
  }
  finish_metrics(out, options.samples);
  return out;
}

// The robust predictor carries the sensitivity rows it was built from, so
// the model itself is not read.
FaultyMcMetrics evaluate_predictor_under_faults(
    const variation::VariationModel& /*model*/,
    const RobustPredictor& predictor, const FaultyMcOptions& options) {
  const std::size_t n_rem = predictor.base.remaining.size();
  const std::size_t n_meas = predictor.base.mu_meas.size();
  const util::telemetry::Span span("core.mc.evaluate_faulty");
  util::telemetry::count("core.mc.faulty_samples", options.mc.samples);
  FaultyMcMetrics out;
  out.metrics.samples = options.mc.samples;
  out.metrics.eps_max.assign(n_rem, 0.0);
  out.metrics.eps_mean.assign(n_rem, 0.0);
  if (!predictor.status.usable()) {
    // Defined degradation, not a throw: every die is a nominal-fallback die.
    // Checked before n_rem: a failed construction leaves `remaining` empty.
    out.failed_dies = options.mc.samples;
    util::telemetry::count("core.mc.dies_failed", out.failed_dies);
    return out;
  }
  if (options.mc.samples == 0 || n_rem == 0) return out;
  const McSampler sampler(linalg::SparseRows(predictor.a_meas),
                          linalg::SparseRows(predictor.a_rem));
  sampler.count(options.mc.samples);

  // Same chunked-deterministic scheme as evaluate_predictor: per-die streams
  // for both the parameter sample and the fault schedule, per-chunk partial
  // slots reduced in fixed chunk order.
  const std::size_t chunk = std::max<std::size_t>(1, options.mc.chunk);
  const std::size_t nchunks = (options.mc.samples + chunk - 1) / chunk;
  std::vector<std::vector<double>> part_max(nchunks), part_sum(nchunks);
  struct Counters {
    std::size_t failed = 0;
    std::size_t ok = 0;
    std::size_t degraded = 0;
    std::size_t screened = 0;
    std::size_t missing = 0;
    std::size_t outliers = 0;
    // Per-fault-mode attribution (see FaultyMcMetrics).
    std::size_t screened_outlier = 0;
    std::size_t screened_noise = 0;
    std::size_t dead = 0;
    std::size_t dropout = 0;
  };
  std::vector<Counters> part_cnt(nchunks);
  // One die's remaining-path prediction from its fault-injected
  // measurements, tallying the faults into `cnt`.
  const auto predict_die = [&](const linalg::Vector& clean, std::size_t die,
                               Counters& cnt) {
    const NoisyMeasurements noisy =
        apply_faults(clean, predictor.base.mu_meas, options.faults, die);
    cnt.outliers += static_cast<std::size_t>(noisy.outliers);
    cnt.missing += static_cast<std::size_t>(noisy.dropped);
    cnt.dead += static_cast<std::size_t>(noisy.dead);
    cnt.dropout += static_cast<std::size_t>(noisy.dropout);
    if (options.naive) {
      // Plain linear map on the faulty values; invalid slots sit at their
      // nominal delay, i.e. a centered value of zero.
      linalg::Vector centered(n_meas, 0.0);
      for (std::size_t i = 0; i < n_meas; ++i) {
        if (noisy.valid[i]) {
          centered[i] = noisy.values[i] - predictor.base.mu_meas[i];
        }
      }
      linalg::Vector pred = linalg::matvec(predictor.base.coef, centered);
      for (std::size_t i = 0; i < n_rem; ++i) {
        pred[i] += predictor.base.mu_rem[i];
      }
      return pred;
    }
    RobustPrediction rp = predictor.predict(noisy.values, noisy.valid);
    cnt.screened += rp.screened.size();
    // Attribute each screened slot to the fault that produced it: an
    // injected heavy-tail outlier vs. plain sensor noise (the outlier list
    // per die is short, so a linear scan beats a mask rebuild).
    for (int s : rp.screened) {
      bool injected = false;
      for (int o : noisy.outlier_slots) {
        if (o == s) {
          injected = true;
          break;
        }
      }
      if (injected) {
        ++cnt.screened_outlier;
      } else {
        ++cnt.screened_noise;
      }
    }
    switch (rp.health) {
      case PredictorHealth::kOk: ++cnt.ok; break;
      case PredictorHealth::kDegraded: ++cnt.degraded; break;
      case PredictorHealth::kFailed: ++cnt.failed; break;
    }
    return std::move(rp.values);
  };
  util::parallel_for(0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    McSampler::Block blk = sampler.block();
    // The block's predictions, one column per die, scored path by path
    // against the true delays once the block's dies are predicted.
    linalg::Matrix preds(n_rem, McSampler::kBlock);
    linalg::Vector clean(n_meas), d(McSampler::kBlock);
    for (std::size_t ci = cb; ci < ce; ++ci) {
      const std::size_t s0 = ci * chunk;
      const std::size_t s1 = std::min(s0 + chunk, options.mc.samples);
      std::vector<double>& pmax = part_max[ci];
      std::vector<double>& psum = part_sum[ci];
      Counters& cnt = part_cnt[ci];
      pmax.assign(n_rem, 0.0);
      psum.assign(n_rem, 0.0);
      for (std::size_t s = s0; s < s1; s += McSampler::kBlock) {
        sampler.draw(options.mc.seed, s, s1 - s, blk);
        for (std::size_t j = 0; j < blk.width; ++j) {
          for (std::size_t i = 0; i < n_meas; ++i) {
            clean[i] = predictor.base.mu_meas[i] + blk.y(i, j);
          }
          const linalg::Vector pred = predict_die(clean, s + j, cnt);
          for (std::size_t i = 0; i < n_rem; ++i) preds(i, j) = pred[i];
        }
        for (std::size_t i = 0; i < n_rem; ++i) {
          sampler.remaining(i, blk, d);
          const double mu_i = predictor.base.mu_rem[i];
          for (std::size_t j = 0; j < blk.width; ++j) {
            const double t = mu_i + d[j];
            const double rel = std::abs(preds(i, j) - t) / std::abs(t);
            pmax[i] = std::max(pmax[i], rel);
            psum[i] += rel;
          }
        }
      }
    }
  });
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    for (std::size_t i = 0; i < n_rem; ++i) {
      out.metrics.eps_max[i] = std::max(out.metrics.eps_max[i], part_max[ci][i]);
      out.metrics.eps_mean[i] += part_sum[ci][i];
    }
    out.failed_dies += part_cnt[ci].failed;
    out.mean_screened += static_cast<double>(part_cnt[ci].screened);
    out.mean_missing += static_cast<double>(part_cnt[ci].missing);
    out.mean_outliers += static_cast<double>(part_cnt[ci].outliers);
    out.mean_screened_outlier +=
        static_cast<double>(part_cnt[ci].screened_outlier);
    out.mean_screened_noise += static_cast<double>(part_cnt[ci].screened_noise);
    out.mean_dead += static_cast<double>(part_cnt[ci].dead);
    out.mean_dropout += static_cast<double>(part_cnt[ci].dropout);
  }
  {
    // Per-die PredictorStatus tallies, reduced once per evaluation so the
    // hot loop never touches the registry.  Rejections are broken down per
    // fault mode so drift diagnosis can tell tester faults from model drift.
    std::size_t ok = 0, degraded = 0;
    std::size_t rej_outlier = 0, rej_noise = 0, dead = 0, dropout = 0;
    for (const Counters& c : part_cnt) {
      ok += c.ok;
      degraded += c.degraded;
      rej_outlier += c.screened_outlier;
      rej_noise += c.screened_noise;
      dead += c.dead;
      dropout += c.dropout;
    }
    util::telemetry::count("core.mc.dies_ok", ok);
    util::telemetry::count("core.mc.dies_degraded", degraded);
    util::telemetry::count("core.mc.dies_failed", out.failed_dies);
    util::telemetry::count("core.mc.reject_outlier", rej_outlier);
    util::telemetry::count("core.mc.reject_noise", rej_noise);
    util::telemetry::count("core.mc.slots_dead", dead);
    util::telemetry::count("core.mc.slots_dropout", dropout);
  }
  finish_metrics(out.metrics, options.mc.samples);
  const auto samples = static_cast<double>(options.mc.samples);
  out.mean_screened /= samples;
  out.mean_missing /= samples;
  out.mean_outliers /= samples;
  out.mean_screened_outlier /= samples;
  out.mean_screened_noise /= samples;
  out.mean_dead /= samples;
  out.mean_dropout /= samples;
  return out;
}

StreamingMcMetrics evaluate_predictor_streaming(
    const variation::VariationModel& model, const RobustPredictor& predictor,
    const StreamingMcOptions& options) {
  const std::size_t m = model.num_params();
  const std::size_t n_rem = predictor.base.remaining.size();
  const std::size_t n_meas = predictor.base.mu_meas.size();
  const util::telemetry::Span span("core.mc.evaluate_streaming");
  util::telemetry::count("core.mc.streaming_dies", options.mc.samples);

  StreamingMcMetrics out;
  out.dies = options.mc.samples;
  out.metrics.samples = options.mc.samples;
  out.metrics.eps_max.assign(n_rem, 0.0);
  out.metrics.eps_mean.assign(n_rem, 0.0);

  StreamingCalibrator cal(predictor, options.stream);
  out.initial_guardband = cal.guardband();
  if (options.mc.samples == 0 || n_rem == 0 || !cal.status().usable()) {
    // Defined degradation: an unusable predictor makes an unusable stream.
    // Feeding dies would only quarantine them one by one; report as-is.
    out.status = cal.status();
    out.final_guardband = cal.guardband();
    return out;
  }

  // Shift images of the injected drift scenario (once, outside the loop):
  // the silicon mean moves by `delta`, so measured slots shift by
  // A_meas delta and true remaining delays by A_rem delta.
  linalg::Vector drift_meas, drift_rem;
  const bool has_drift = options.drift.active();
  if (has_drift) {
    linalg::Vector delta(m, 0.0);
    if (options.drift.direction.size() == m &&
        linalg::norm2(options.drift.direction) > 0.0) {
      const double s =
          options.drift.magnitude / linalg::norm2(options.drift.direction);
      for (std::size_t i = 0; i < m; ++i) {
        delta[i] = s * options.drift.direction[i];
      }
    } else {
      // Common-mode default: every parameter shifts equally.  A random
      // direction would be invisible to most measured slots; common-mode is
      // the physically meaningful "process moved" scenario.
      const double s = options.drift.magnitude /
                       std::sqrt(static_cast<double>(std::max<std::size_t>(m, 1)));
      for (std::size_t i = 0; i < m; ++i) delta[i] = s;
    }
    drift_meas = linalg::matvec(predictor.a_meas, delta);
    drift_rem = linalg::matvec(predictor.a_rem, delta);
  }

  const McSampler sampler(linalg::SparseRows(predictor.a_meas),
                          linalg::SparseRows(predictor.a_rem));
  sampler.count(options.mc.samples);
  if (options.record_trajectory) {
    out.guardband_trajectory.reserve(options.mc.samples);
    out.drift_trajectory.reserve(options.mc.samples);
  }

  // Block-parallel generation, sequential calibration.  The staging buffers
  // are die-indexed and each die's sample comes from its own RNG stream, so
  // the generated values are independent of both chunking and thread count;
  // the calibrator pass then runs in strict die order.
  const std::size_t block = std::max<std::size_t>(1, options.block);
  const std::size_t chunk = std::max<std::size_t>(1, options.mc.chunk);
  double prev_guard = out.initial_guardband;
  linalg::Vector clean(n_meas);
  for (std::size_t b0 = 0; b0 < options.mc.samples; b0 += block) {
    const std::size_t bc = std::min(block, options.mc.samples - b0);
    linalg::Matrix d_true(n_rem, bc);
    linalg::Matrix y(n_meas, bc);
    const std::size_t nchunks = (bc + chunk - 1) / chunk;
    util::parallel_for(0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
      McSampler::Block blk = sampler.block();
      for (std::size_t ci = cb; ci < ce; ++ci) {
        const std::size_t s0 = ci * chunk;
        const std::size_t s1 = std::min(s0 + chunk, bc);
        for (std::size_t s = s0; s < s1; s += McSampler::kBlock) {
          sampler.draw(options.mc.seed, b0 + s, s1 - s, blk);
          for (std::size_t i = 0; i < n_rem; ++i) {
            sampler.remaining(i, blk, d_true.row(i).subspan(s));
          }
          for (std::size_t i = 0; i < n_meas; ++i) {
            std::copy_n(blk.y.row(i).begin(), blk.width,
                        y.row(i).begin() + static_cast<std::ptrdiff_t>(s));
          }
        }
      }
    });
    for (std::size_t j = 0; j < bc; ++j) {
      const std::size_t die = b0 + j;
      const bool drifted = has_drift && die >= options.drift.start_die;
      for (std::size_t i = 0; i < n_meas; ++i) {
        clean[i] = predictor.base.mu_meas[i] + y(i, j) +
                   (drifted ? drift_meas[i] : 0.0);
      }
      const NoisyMeasurements noisy = apply_faults(
          clean, predictor.base.mu_meas, options.faults, die);
      const DieRecord rec = cal.observe(die, noisy.values, noisy.valid);
      if (options.record_trajectory) {
        out.guardband_trajectory.push_back(rec.guardband);
        out.drift_trajectory.push_back(rec.drift_score);
      }
      // Non-inflation check with a tiny absolute slack for the symmetrized
      // covariance roundoff.
      if (rec.guardband > prev_guard + 1e-12) out.guardband_monotone = false;
      prev_guard = rec.guardband;
      if (rec.predicted.size() == n_rem) {
        for (std::size_t i = 0; i < n_rem; ++i) {
          const double t = predictor.base.mu_rem[i] + d_true(i, j) +
                           (drifted ? drift_rem[i] : 0.0);
          const double rel = std::abs(rec.predicted[i] - t) / std::abs(t);
          out.metrics.eps_max[i] = std::max(out.metrics.eps_max[i], rel);
          out.metrics.eps_mean[i] += rel;
        }
      }
    }
  }

  finish_metrics(out.metrics, options.mc.samples);
  out.status = cal.status();
  out.final_guardband = cal.guardband();
  out.drift_flag_die = out.status.drift_flag_die;
  return out;
}

}  // namespace repro::core
