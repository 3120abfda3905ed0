// perfbench: the repository benchmark binary.
//
//   perfbench --workload <cold_pipeline|em_reproduce|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable block (every metric with its unit, sample
// count and quartiles; output checks; request accounting) and, as the
// last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics untraced, the per-layer ledger traced. Exits
// non-zero when an output check fails. perfbench/run.py builds this
// binary and is the entry point to use.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/ledger.h"
#include "src/workloads.h"
#include "src/world.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_pipeline|em_reproduce|serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out_dir = ".bench_build/out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!(options.seconds > 0.0)) return Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const std::string tag =
      options.workload + "-seed" + std::to_string(options.seed);
  options.work_dir = out_dir + "/run-" + tag + "-" + std::to_string(getpid());
  options.spans_path = out_dir + "/spans-" + tag + ".json";

  perfbench::WorkloadResult result;
  if (options.workload == "cold_pipeline") {
    result = perfbench::RunColdPipeline(options);
  } else if (options.workload == "em_reproduce") {
    result = perfbench::RunEmReproduce(options);
  } else if (options.workload == "serve") {
    result = perfbench::RunServe(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  perfbench::RemoveTree(options.work_dir);
  perfbench::PrintResult(options, result);
  return result.correct() ? 0 : 1;
}
