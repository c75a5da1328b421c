#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/rng.h"

namespace perfbench {

void Result::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
  }
}

void Result::print_json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // A non-finite value is not JSON; it only arises from a failed
    // measurement, which the failed count already reports.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::uint64_t derived_seed(const std::string& name, std::string_view what,
                           std::uint64_t seed) {
  return repro::util::Rng::seed_from(name + "/" + std::string(what), seed);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size(), std::max<std::size_t>(1, static_cast<std::size_t>(rank)));
  return v[idx - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double counter_in(const repro::util::telemetry::Snapshot& s,
                  std::string_view name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

double span_ms_in(const repro::util::telemetry::Snapshot& s,
                  std::string_view name) {
  for (const auto& sp : s.spans) {
    if (sp.name == name) return sp.total_ms;
  }
  return 0.0;
}

// Name and unit of every per-layer metric.
const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics = {
    {"circuit.generate_s", "s"},
    {"timing.graph_s", "s"},
    {"timing.enum_s", "s"},
    {"timing.paths_enumerated", "count"},
    {"core.yield_s", "s"},
    {"variation.model_s", "s"},
    {"variation.params", "count"},
    {"unattributed_s", "s"},
    {"linalg.svd_s", "s"},
    {"linalg.svd.sweeps", "count"},
    {"core.select.svd_route", "count"},
    {"core.select_s", "s"},
    {"core.eig_capture_s", "s"},
    {"core.select.candidates", "count"},
    {"linalg.gram_s", "s"},
    {"linalg.syrk.flops", "count"},
    {"core.mc_s", "s"},
    {"linalg.gemm.flops", "count"},
    {"linalg.gemm.gflops", "GFLOP/s"},
    {"util.pool.worker_share", "ratio"},
    {"core.predictor_s", "s"},
    {"server.open_cold_s", "s"},
    {"core.shard.shards", "count"},
    {"core.shard.repair_promotions", "count"},
    {"predict_p50_us", "us"},
    {"predict_p99_us", "us"},
    {"observe_p50_us", "us"},
    {"observe_p99_us", "us"},
    {"requests_per_s", "1/s"},
    {"core.predict_us", "us"},
    {"server.predict_overhead_us", "us"},
    {"server.batch_mean_dies", "count"},
    {"core.observe_us", "us"},
    {"core.stream.dies_accepted", "count"},
    {"core.stream.dies_rejected", "count"},
    {"core.stream.dies_quarantined", "count"},
    {"trace_overhead", "ratio"},
};

}  // namespace

TelemetryDelta::TelemetryDelta()
    : before_(repro::util::telemetry::snapshot()) {}

void TelemetryDelta::stop() { after_ = repro::util::telemetry::snapshot(); }

double TelemetryDelta::counter(std::string_view name) const {
  return counter_in(after_, name) - counter_in(before_, name);
}

double TelemetryDelta::span_s(std::string_view name) const {
  return (span_ms_in(after_, name) - span_ms_in(before_, name)) * 1e-3;
}

void LayerTable::row(std::string module, std::string name, double seconds) {
  rows_.push_back({std::move(module), std::move(name), seconds});
}

void LayerTable::print(const std::string& title, double wall_s) const {
  std::printf("\n%s (wall %.3f s)\n", title.c_str(), wall_s);
  std::printf("  %-9s %-28s %12s %8s\n", "module", "self time", "seconds",
              "share");
  double sum = 0.0;
  for (const Row& r : rows_) {
    sum += r.seconds;
    std::printf("  %-9s %-28s %12.4f %7.1f%%\n", r.module.c_str(),
                r.name.c_str(), r.seconds,
                wall_s > 0.0 ? 100.0 * r.seconds / wall_s : 0.0);
  }
  const double rest = wall_s - sum;
  std::printf("  %-9s %-28s %12.4f %7.1f%%\n", "-", "unattributed_s", rest,
              wall_s > 0.0 ? 100.0 * rest / wall_s : 0.0);
}

void emit_per_layer(Result& result,
                    const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : kPerLayerMetrics) {
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
