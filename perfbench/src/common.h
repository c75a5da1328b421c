// Shared plumbing of the perfbench program: command-line arguments, the
// result line, latency statistics, telemetry deltas and the traced-run
// layer table.  Everything here sits outside the library; the workloads
// call only its public entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metrics of one run plus the attempted / failed operation counts.  The
// last line of stdout is the JSON object print_json() writes.
class Result {
 public:
  void metric(std::string name, double value, std::string unit);
  // Counts one operation; a false `ok` counts it as failed and prints
  // `what` so the failure is visible above the result line.
  void op(bool ok, const std::string& what);
  // Counts a batch of operations whose failures were reported already.
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void print_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// A stable seed per (name, purpose) derived from the workload seed.
std::uint64_t derived_seed(const std::string& name, std::string_view what,
                           std::uint64_t seed);

double seconds_since(std::int64_t start_ns);
std::int64_t now_ns();

double median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

// Process high-water resident set, MiB.
double peak_rss_mib();

// Library counters and span totals between two points of the run.
class TelemetryDelta {
 public:
  TelemetryDelta();  // takes the "before" snapshot
  void stop();       // takes the "after" snapshot
  double counter(std::string_view name) const;
  double span_s(std::string_view name) const;

 private:
  repro::util::telemetry::Snapshot before_;
  repro::util::telemetry::Snapshot after_;
};

// One workload's traced-run accounting: self-time rows per module whose sum
// plus the unattributed remainder equals the measured wall time.
class LayerTable {
 public:
  void row(std::string module, std::string name, double seconds);
  void print(const std::string& title, double wall_s) const;

 private:
  struct Row {
    std::string module;
    std::string name;
    double seconds;
  };
  std::vector<Row> rows_;
};

// Adds every per-layer metric, in BENCHMARK.json order, to `result`, taking
// values from `values` and zero for layers the workload does not exercise.
void emit_per_layer(Result& result, const std::map<std::string, double>& values);

int run_flow(const Args& args, const std::vector<std::string>& circuits);
int run_serve(const Args& args);

}  // namespace perfbench
