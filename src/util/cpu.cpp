#include "util/cpu.h"

#include <cstdlib>
#include <fstream>
#include <string>

#include "util/text.h"

namespace repro::util {
namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports executes CPUID once per process under the hood
  // (gcc and clang both cache); no intrinsics header needed, which keeps raw
  // _mm* usage confined to src/linalg/simd/ (repro_lint: simd-confinement).
  f.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
#endif
  return f;
}

double parse_ghz_from_cpuinfo() {
  std::ifstream in("/proc/cpuinfo");
  if (!in) return 0.0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    // "model name : Intel(R) Xeon(R) Processor @ 2.10GHz"
    const std::size_t at = line.rfind("@ ");
    const std::size_t ghz = line.rfind("GHz");
    if (at == std::string::npos || ghz == std::string::npos || ghz <= at + 2) {
      return 0.0;
    }
    const std::string num = line.substr(at + 2, ghz - at - 2);
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    return (end != num.c_str() && v > 0.1 && v < 10.0) ? v : 0.0;
  }
  return 0.0;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect();
  return features;
}

double nominal_cpu_ghz() {
  static const double ghz = [] {
    if (const auto v = env_ghz_override(std::getenv("REPRO_CPU_GHZ"))) {
      return *v;
    }
    const double parsed = parse_ghz_from_cpuinfo();
    return parsed > 0.0 ? parsed : 2.0;
  }();
  return ghz;
}

std::optional<double> env_ghz_override(const char* value) {
  if (value == nullptr) return std::nullopt;
  // Full-string parse, same strictness as REPRO_THREADS: "2.1GHz" is a user
  // error, not a 2.1 override.
  const auto v = parse_double_strict(value);
  if (!v || !(*v > 0.1 && *v < 10.0)) return std::nullopt;
  return *v;
}

}  // namespace repro::util
