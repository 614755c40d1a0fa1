// perfbench: the repository benchmark runner (see NOTES.md).
//
//   perfbench --workload <stream_day|batch_day|serve_live> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Generates the workload's inputs from the seed, drives the program through
// its public entry points, checks the outputs, and prints one JSON result
// object as the last line of standard output. Exits non-zero when a
// correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "stream_day") return perfbench::run_stream_day(options);
    if (options.workload == "batch_day") return perfbench::run_batch_day(options);
    if (options.workload == "serve_live") return perfbench::run_serve_live(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
