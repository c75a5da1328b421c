// Throughput gauges for the dense kernels: after a sufficiently large call,
// each kernel records linalg.<name>.gflops (measured) and
// linalg.<name>.peak_fraction (measured / nominal tier peak, see
// simd::theoretical_peak_gflops).  Gauges keep the latest value, so a bench
// snapshot shows the most recent large-kernel throughput — exactly what the
// GFLOP/s-vs-peak CI metrics read.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "linalg/simd/dispatch.h"
#include "util/telemetry.h"

namespace repro::linalg {

// Calls below this many FLOPs skip the gauges: they are steady_clock noise,
// and loops that make thousands of small GEMM calls must never take the
// registry mutex per call.
inline constexpr std::size_t kThroughputMinFlops = 16'000'000;

inline void record_kernel_throughput(std::string_view kernel,
                                     std::size_t flops, double seconds,
                                     std::size_t threads) {
  if (flops < kThroughputMinFlops || seconds <= 0.0 ||
      !util::telemetry::enabled()) {
    return;
  }
  const double gflops = static_cast<double>(flops) / seconds * 1e-9;
  const std::string base = "linalg." + std::string(kernel);
  util::telemetry::set_gauge(base + ".gflops", gflops);
  const double peak =
      simd::theoretical_peak_gflops(simd::active_tier(), threads);
  if (peak > 0.0) {
    util::telemetry::set_gauge(base + ".peak_fraction", gflops / peak);
  }
}

}  // namespace repro::linalg
