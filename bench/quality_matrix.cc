// Detection-quality matrix (docs/QUALITY.md): runs every scenario family
// from src/synth/scenarios.h through the StreamEngine, scores the
// publication trail against the scenario's ground truth
// (src/synth/quality.h), and enforces per-scenario floors. Writes
// BENCH_quality.json (JsonReporter shape) so detection quality is a
// tracked trajectory alongside the perf benches.
//
// Usage: quality_matrix [out.json] [--smoke]
// Exits non-zero when any scenario falls below its floor.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "stream/stream_config.h"
#include "synth/quality.h"
#include "synth/scenarios.h"
#include "util/table.h"

namespace {

using namespace smash;

stream::StreamConfig engine_config(const synth::ScenarioCase& scenario_case) {
  stream::StreamConfig config;
  config.epoch_seconds = scenario_case.epoch_seconds;
  config.window_epochs = scenario_case.window_epochs;
  config.smash.idf_threshold = scenario_case.idf_threshold;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_quality.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  auto cases = synth::scenario_matrix(smoke);
  bench::JsonReporter report("quality_matrix");
  util::Table table(std::string("Detection quality matrix (") +
                    (smoke ? "smoke" : "full") + ")");
  table.set_header({"scenario", "precision", "recall", "F1", "FP 2LDs",
                    "latency (epochs)", "campaigns", "floor"});

  bool ok = true;
  for (const auto& scenario_case : cases) {
    const auto& scenario = scenario_case.scenario;
    synth::ScenarioRun run;
    const double run_ms = bench::time_once_ms([&] {
      run = synth::run_scenario(scenario, engine_config(scenario_case));
    });

    const auto quality =
        synth::evaluate_quality(scenario.name, run.observations,
                                scenario.truth, scenario_case.epoch_seconds);
    const auto floor = synth::floor_for(scenario.name);
    std::string why;
    const bool floored = synth::meets_floor(quality, floor, &why);
    if (!floored) {
      ok = false;
      std::fprintf(stderr, "FAIL below floor:\n%s\nactual vs floor:\n%s",
                   why.c_str(),
                   synth::describe_vs_floor(quality, floor).c_str());
    }

    table.add_row(
        {scenario.name, util::format_fixed(quality.precision, 3),
         util::format_fixed(quality.recall, 3),
         util::format_fixed(quality.f1, 3),
         std::to_string(quality.false_positives),
         util::format_fixed(quality.detection_latency_epochs_mean, 1) + " / " +
             util::format_fixed(quality.detection_latency_epochs_max, 1),
         std::to_string(quality.campaigns_detected) + "/" +
             std::to_string(quality.campaigns),
         floored ? "ok" : "FAIL"});

    report.add("quality/" + scenario.name, run_ms,
               {{"precision", quality.precision},
                {"recall", quality.recall},
                {"f1", quality.f1},
                {"false_positive_2lds",
                 static_cast<double>(quality.false_positives)},
                {"true_positives", static_cast<double>(quality.true_positives)},
                {"truth_servers", static_cast<double>(quality.truth_servers)},
                {"flagged_2lds", static_cast<double>(quality.flagged_2lds)},
                {"detection_latency_epochs_mean",
                 quality.detection_latency_epochs_mean},
                {"detection_latency_epochs_max",
                 quality.detection_latency_epochs_max},
                {"campaigns", static_cast<double>(quality.campaigns)},
                {"campaigns_detected",
                 static_cast<double>(quality.campaigns_detected)},
                {"publications", static_cast<double>(run.observations.size())},
                {"events", static_cast<double>(scenario.events.size())},
                {"floor_ok", floored ? 1.0 : 0.0},
                {"smoke", smoke ? 1.0 : 0.0}});
  }

  std::fputs(table.render().c_str(), stdout);
  if (!report.write(out_path)) return 1;
  std::printf("\nwrote %s (%zu scenarios)\n", out_path.c_str(), cases.size());
  if (!ok) {
    std::fputs("quality_matrix: FAILED (floor violation)\n", stderr);
    return 1;
  }
  return 0;
}
