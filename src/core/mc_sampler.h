// Sampling core shared by the Monte-Carlo evaluators (core/monte_carlo.h,
// core/guardband.h).
//
// Under d = mu + A x with x ~ N(0, I), an evaluator reads two linear images
// of each parameter sample: the measured quantities y = A_meas x and the
// remaining-path deltas A_rem x.  Both operands are compressed rows
// (linalg/sparse_rows.h): a path row touches only its own gates and regions,
// so a dense product would spend nearly all of its flops on zeros.  Samples are
// handled in blocks of kBlock; an evaluator takes A_rem x one remaining path
// at a time, so it can score that path over the block at once and never
// stages an n_rem x samples matrix of true delays.
//
// Every value is summed in a fixed order (sparse rows by column, predictions
// by measurement slot), so a sample's y, A_rem x and prediction do not depend
// on the block, the chunking or the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/monte_carlo.h"
#include "core/predictor.h"
#include "linalg/matrix.h"
#include "linalg/sparse_rows.h"
#include "util/rng.h"
#include "variation/variation_model.h"

namespace repro::core {

class McSampler {
 public:
  // Samples per block: the width of a Block's x and y.
  static constexpr std::size_t kBlock = 32;

  // Parameter samples of one block and their measured image.
  struct Block {
    linalg::Matrix x;  // params x kBlock; columns [0, width) are drawn
    linalg::Matrix y;  // measured x kBlock: y = A_meas x
    std::size_t width = 0;
  };

  // `meas` rows give the measured quantities, `rem` the remaining paths;
  // both span the same parameters.
  McSampler(linalg::SparseRows meas, linalg::SparseRows rem);
  // The rows `predictor` reads from `model`: the measured paths of A, then
  // the measured segments of Sigma (the mu_meas layout); the remaining
  // paths of A.
  McSampler(const variation::VariationModel& model,
            const LinearPredictor& predictor);

  std::size_t params() const { return rem_.cols(); }

  // Adds the sparse work of `samples` samples to linalg.spmm.flops:
  // 2 (nnz(A_meas) + nnz(A_rem)) samples.  Call once per evaluation, outside
  // the parallel loop.
  void count(std::size_t samples) const;

  // Working buffers for one pool task.
  Block block() const;

  // Samples [s0, s0 + width), sample k drawn from util::Rng::stream(seed, k).
  void draw(std::uint64_t seed, std::size_t s0, std::size_t width,
            Block& b) const;
  // The next `width` samples of one sequential generator, each sample's
  // parameters drawn consecutively.
  void draw(util::Rng& rng, std::size_t width, Block& b) const;

  // d[j] = a_i . x_j for remaining path i, j < b.width <= d.size().
  void remaining(std::size_t i, const Block& b, std::span<double> d) const;

 private:
  void measure(Block& b) const;

  linalg::SparseRows meas_;
  linalg::SparseRows rem_;
};

// Turns per-path error sums into the paper's metrics: eps_mean /= samples,
// then e1 and e2 (the means of eps_max and eps_mean over the remaining
// paths, zero when there are none) and worst_eps.
void finish_metrics(McMetrics& m, std::size_t samples);

// pred[j] = sum_k coef(i, k) y(k, j), k ascending: remaining path i's
// centered prediction, j < b.width <= pred.size().
void predict_row(const linalg::Matrix& coef, std::size_t i,
                 const McSampler::Block& b, std::span<double> pred);

}  // namespace repro::core
