// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The SIMD micro-kernels (src/linalg/simd/) are always compiled on x86-64 —
// each tier's translation unit carries its own -mavx2/-mavx512f flags — so a
// portable binary still ships every tier and picks the widest one the CPU
// actually reports at startup.  This header is the single place that asks
// the hardware; everything above it goes through linalg::simd::dispatch.
#pragma once

#include <optional>

namespace repro::util {

struct CpuFeatures {
  bool avx2 = false;     // AVX2 + FMA (both required by the avx2 tier)
  bool avx512f = false;  // AVX-512 Foundation
};

// Detected once on first call, then cached for the process.
const CpuFeatures& cpu_features();

// Nominal core clock in GHz for the theoretical-peak telemetry gauges
// (linalg.*.peak_fraction).  Resolution order: the REPRO_CPU_GHZ environment
// variable, the "@ N.NNGHz" suffix of the /proc/cpuinfo model name, else a
// conservative 2.0.  A nominal value is fine here: peak_fraction is a gauge
// for humans reading bench records; the CI perf gate uses speedup-vs-scalar
// ratios, which cancel the clock entirely.
double nominal_cpu_ghz();

// Strictly parsed REPRO_CPU_GHZ override (nullptr = variable unset).  The
// whole string must be one plausible decimal clock (0.1 < v < 10); trailing
// garbage ("2.1GHz") yields nullopt and the /proc/cpuinfo fallback runs.
// Exposed for unit testing; nominal_cpu_ghz() applies it once per process.
std::optional<double> env_ghz_override(const char* value);

}  // namespace repro::util
