// perfbench: the repository's benchmark program.
//
//   perfbench --workload <flow_tall|flow_wide|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics (plus a layer table above the line) with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <flow_tall|flow_wide|serve_mixed>"
               " --seed <n> --seconds <s> --trace <0|1>\n");
}

bool parse(int argc, char** argv, perfbench::Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
      continue;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    if (args.workload == "flow_tall") {
      return perfbench::run_flow(args, {"s1196", "s1423", "s1488"});
    }
    if (args.workload == "flow_wide") {
      return perfbench::run_flow(args, {"s9234", "s38417"});
    }
    if (args.workload == "serve_mixed") return perfbench::run_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  usage();
  return 2;
}
