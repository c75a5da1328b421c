#include "core/mc_sampler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/contracts.h"

namespace repro::core {

McSampler::McSampler(linalg::SparseRows meas, linalg::SparseRows rem)
    : meas_(std::move(meas)), rem_(std::move(rem)) {
  if (meas_.cols() != rem_.cols()) {
    throw std::invalid_argument("McSampler: operands span different params");
  }
}

McSampler::McSampler(const variation::VariationModel& model,
                     const LinearPredictor& predictor)
    : meas_(model.num_params()),
      rem_(model.a(), predictor.remaining) {
  for (int i : predictor.measured_paths) {
    meas_.push_row(model.a().row(static_cast<std::size_t>(i)));
  }
  for (int s : predictor.measured_segments) {
    meas_.push_row(model.sigma().row(static_cast<std::size_t>(s)));
  }
}

void McSampler::count(std::size_t samples) const {
  linalg::count_spmm(meas_.nnz() + rem_.nnz(), samples);
}

McSampler::Block McSampler::block() const {
  return {linalg::Matrix(params(), kBlock),
          linalg::Matrix(meas_.rows(), kBlock), 0};
}

void McSampler::draw(std::uint64_t seed, std::size_t s0, std::size_t width,
                     Block& b) const {
  b.width = std::min(width, kBlock);
  for (std::size_t j = 0; j < b.width; ++j) {
    util::Rng rng = util::Rng::stream(seed, s0 + j);
    for (std::size_t i = 0; i < params(); ++i) b.x(i, j) = rng.normal();
  }
  measure(b);
}

void McSampler::draw(util::Rng& rng, std::size_t width, Block& b) const {
  b.width = std::min(width, kBlock);
  for (std::size_t j = 0; j < b.width; ++j) {
    for (std::size_t i = 0; i < params(); ++i) b.x(i, j) = rng.normal();
  }
  measure(b);
}

void McSampler::measure(Block& b) const {
  for (std::size_t k = 0; k < meas_.rows(); ++k) {
    meas_.multiply_row(k, b.x, b.y.row(k).first(b.width));
  }
}

void McSampler::remaining(std::size_t i, const Block& b,
                          std::span<double> d) const {
  rem_.multiply_row(i, b.x, d.first(b.width));
}

void finish_metrics(McMetrics& m, std::size_t samples) {
  const std::size_t n = m.eps_max.size();
  for (std::size_t i = 0; i < n; ++i) {
    m.eps_mean[i] /= static_cast<double>(samples);
    m.e1 += m.eps_max[i];
    m.e2 += m.eps_mean[i];
    m.worst_eps = std::max(m.worst_eps, m.eps_max[i]);
  }
  if (n > 0) {
    m.e1 /= static_cast<double>(n);
    m.e2 /= static_cast<double>(n);
  }
  m.samples = samples;
}

void predict_row(const linalg::Matrix& coef, std::size_t i,
                 const McSampler::Block& b, std::span<double> pred) {
  REPRO_CHECK_DIM(coef.cols(), b.y.rows(), "predict_row: measured slots");
  REPRO_CHECK(pred.size() >= b.width, "predict_row: block width");
  std::fill(pred.begin(), pred.begin() + b.width, 0.0);
  for (std::size_t k = 0; k < coef.cols(); ++k) {
    const double c = coef(i, k);
    const double* yk = b.y.row(k).data();
    for (std::size_t j = 0; j < b.width; ++j) pred[j] += c * yk[j];
  }
}

}  // namespace repro::core
