// Shared plumbing for the table/figure benches: dataset presets, pipeline
// sweeps, the Table II/III row layout used by four different tables, and a
// JSON reporter for the quality matrix (BENCH_quality.json).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "synth/world.h"
#include "util/strings.h"
#include "util/table.h"

namespace smash::bench {

// The paper's threshold sweep.
inline const std::vector<double> kThresholds{0.5, 0.8, 1.0, 1.5};

// Builds (and caches within the process) a dataset preset by name:
// "2011day", "2012day", "2012week".
const synth::Dataset& dataset(const std::string& preset);

// Runs the pipeline on `ds` with both campaign-class thresholds set to
// `thresh` (the sweep convention of Tables II/III/XI/XII).
core::SmashResult run_at_threshold(const synth::Dataset& ds, double thresh);

// Renders the Table II-style campaign-count sweep for one dataset pair.
// `single_client` selects the Appendix C population (Tables XI).
util::Table campaign_sweep_table(const std::string& title,
                                 const std::vector<std::string>& presets,
                                 bool single_client);

// Renders the Table III-style server-count sweep (Tables III / XII).
util::Table server_sweep_table(const std::string& title,
                               const std::vector<std::string>& presets,
                               bool single_client);

// Evaluation at the paper's operating point (multi 0.8 / single 1.0).
struct OperatingPoint {
  core::SmashResult result;
  core::EvaluationResult multi;
  core::EvaluationResult single;
};
OperatingPoint run_operating_point(const synth::Dataset& ds);

// --- perf reporting ---------------------------------------------------------

// Collects named timing entries (plus free-form numeric counters) and writes
// them as a small self-describing JSON file, e.g. BENCH_quality.json. No
// external JSON dependency.
class JsonReporter {
 public:
  explicit JsonReporter(std::string benchmark_set)
      : benchmark_set_(std::move(benchmark_set)) {}

  void add(const std::string& name, double ms,
           std::map<std::string, double> counters = {});

  // Renders {"benchmark": ..., "entries": [...]} and writes it to `path`.
  // Returns false (after printing to stderr) if the file cannot be written.
  bool write(const std::string& path) const;

  std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double ms = 0.0;
    std::map<std::string, double> counters;
  };
  std::string benchmark_set_;
  std::vector<Entry> entries_;
};

// Wall-clock time of one fn() call, in milliseconds.
template <typename Fn>
double time_once_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace smash::bench
