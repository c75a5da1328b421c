#include "linalg/simd/dispatch.h"

// This TU is dispatch plumbing, not kernels: everything that allocates here
// (the REPRO_KERNEL override string, the available_tiers diagnostic list)
// runs once at startup or from tests — never on the GEMM hot path.
// repro-lint: allow-file(hot-path-alloc)

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "linalg/simd/kernels.h"
#include "util/cpu.h"
#include "util/telemetry.h"

namespace repro::linalg::simd {
namespace {

// Active table, published once at startup and swapped only by set_tier
// (benches/tests between runs).  Relaxed is enough: the table contents are
// immutable constants and readers only need *some* registered table.
std::atomic<const KernelOps*> g_active{nullptr};
std::once_flag g_init_once;
std::string* g_env_forced = nullptr;  // leaked-on-purpose startup constant

const KernelOps* table_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return scalar_ops();
    case Tier::kAvx2: return avx2_ops();
    case Tier::kAvx512: return avx512_ops();
  }
  return nullptr;
}

bool runnable(Tier tier) {
  if (table_for(tier) == nullptr) return false;
  const util::CpuFeatures& cpu = util::cpu_features();
  switch (tier) {
    case Tier::kScalar: return true;
    case Tier::kAvx2: return cpu.avx2;
    case Tier::kAvx512: return cpu.avx512f;
  }
  return false;
}

bool parse_tier(std::string_view name, Tier& out) {
  if (name == "scalar") out = Tier::kScalar;
  else if (name == "avx2") out = Tier::kAvx2;
  else if (name == "avx512") out = Tier::kAvx512;
  else return false;
  return true;
}

// Resolves a requested tier name to a runnable table, or nullptr for an
// unknown/unavailable request — ticking the fallback counter either way so
// a rejected request is visible in every telemetry snapshot.
const KernelOps* resolve(std::string_view name) {
  Tier tier = Tier::kScalar;
  if (!parse_tier(name, tier) || !runnable(tier)) {
    util::telemetry::count("linalg.simd.dispatch_fallback");
    return nullptr;
  }
  return table_for(tier);
}

void init_dispatch() {
  g_env_forced = new std::string();
  const char* env = std::getenv("REPRO_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    // A bad REPRO_KERNEL has no previous tier to keep: start on scalar (the
    // always-safe reference) rather than guessing a wider tier.
    const KernelOps* t = resolve(env);
    if (t != nullptr) *g_env_forced = env;
    g_active.store(t != nullptr ? t : scalar_ops(),
                   std::memory_order_relaxed);
    return;
  }
  g_active.store(table_for(best_available_tier()),
                 std::memory_order_relaxed);
}

}  // namespace

const KernelOps& ops() {
  std::call_once(g_init_once, init_dispatch);
  return *g_active.load(std::memory_order_relaxed);
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "scalar";
}

bool tier_available(Tier tier) { return runnable(tier); }

Tier best_available_tier() {
  for (Tier t : {Tier::kAvx512, Tier::kAvx2}) {
    if (runnable(t)) return t;
  }
  return Tier::kScalar;
}

std::vector<Tier> available_tiers() {
  std::vector<Tier> out{Tier::kScalar};
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (runnable(t)) out.push_back(t);
  }
  return out;
}

Tier active_tier() { return ops().tier; }

bool set_tier(std::string_view name) {
  std::call_once(g_init_once, init_dispatch);
  const KernelOps* t = resolve(name);
  if (t == nullptr) {
    // Keep the active tier: a caller that ignores the return value (or a
    // typo in a bench harness) must not silently downgrade the whole
    // process to scalar for the rest of the run.
    return false;
  }
  g_active.store(t, std::memory_order_relaxed);
  return true;
}

std::string env_forced_tier() {
  std::call_once(g_init_once, init_dispatch);
  return *g_env_forced;
}

double theoretical_peak_gflops(Tier tier, std::size_t threads) {
  const KernelOps* t = table_for(tier);
  const double per_core = (t != nullptr ? t->flops_per_cycle : 4.0) *
                          util::nominal_cpu_ghz();
  return per_core * static_cast<double>(threads == 0 ? 1 : threads);
}

}  // namespace repro::linalg::simd
