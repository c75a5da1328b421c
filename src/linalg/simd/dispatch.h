// Runtime-dispatched SIMD kernel tiers for the dense hot path.
//
// The blocked GEMM, SYRK-style Gram, multi-RHS trsm, and Cholesky kernels
// all bottom out in a handful of vector primitives (axpy, dot, a packed
// micro-tile GEMM).  Each primitive exists in one table per instruction-set
// tier — scalar, AVX2+FMA, AVX-512F — compiled unconditionally (every
// tier's translation unit carries its own -m flags) and selected once at
// startup from CPUID, so one portable binary runs the widest tier the host
// actually has.
//
// Determinism contract (DESIGN.md §11):
//   * The scalar tier is the bit-exact reference: with REPRO_KERNEL=scalar
//     every kernel runs the pre-SIMD loops unchanged, so selections and
//     predictions are bit-identical to the scalar-only builds.
//   * SIMD tiers reassociate accumulations (vector lanes + FMA), so they are
//     toleranced against scalar: per element |Δ| <= c·k·u·Σ|a||b| with small
//     c (tests enforce an envelope of 1e-11 on unit-scale data, documented
//     in tests/test_simd_kernels.cpp).
//   * Within a tier, results are bit-identical across thread counts: work is
//     partitioned over output elements and each element's floating-point
//     sequence depends only on deterministic block geometry, never on the
//     executing thread.
//
// Tier selection: best available by default; the REPRO_KERNEL environment
// variable ("scalar", "avx2", "avx512") forces a tier at startup.
// Forcing an unknown or unavailable tier at startup falls back to scalar
// and ticks the linalg.simd.dispatch_fallback counter (a later failed
// set_tier keeps the active tier instead — see set_tier below).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace repro::linalg::simd {

enum class Tier { kScalar = 0, kAvx2, kAvx512 };

// Lower-case tier name ("scalar", "avx2", "avx512").
const char* tier_name(Tier tier);

// True when the tier's kernels are both compiled in and runnable on this
// CPU.  kScalar is always available.
bool tier_available(Tier tier);

// Widest available tier (what dispatch picks with no REPRO_KERNEL set).
Tier best_available_tier();

// Every available tier, scalar first, in widening order.
std::vector<Tier> available_tiers();

// The tier the kernels currently run on.  Initialized on first use from
// REPRO_KERNEL (or best available) and stable until set_tier.
Tier active_tier();

// Forces the active tier by name.  Returns true and switches when `name` is
// a known, available tier; otherwise LEAVES THE ACTIVE TIER UNCHANGED,
// ticks the linalg.simd.dispatch_fallback telemetry counter, and returns
// false — a rejected request must not silently downgrade a process that
// ignores the return value.  (Only the startup REPRO_KERNEL path falls back
// to scalar: there is no previous tier to keep yet.)  Not meant to race
// with in-flight kernels (benches and tests switch between runs).
bool set_tier(std::string_view name);

// The tier REPRO_KERNEL forced at startup, or empty when unset/invalid.
// Benches use this to honor a forced reference leg instead of sweeping.
std::string env_forced_tier();

// Nominal peak for `threads` cores at the tier's FLOP/cycle width times
// util::nominal_cpu_ghz() — the denominator of the linalg.*.peak_fraction
// gauges.  Nominal by design: the CI perf gate uses speedup ratios instead.
double theoretical_peak_gflops(Tier tier, std::size_t threads);

}  // namespace repro::linalg::simd
