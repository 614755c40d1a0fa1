// Staged recomputation for traced runs: SmashPipeline's mining tail
// re-run one public layer function at a time, with a span around each
// call. Its output must equal the pipeline's (stream_day compares snapshot
// digests at every close, batch_day compares campaigns), so the per-layer
// times describe the same work the end-to-end numbers measure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "spans.h"
#include "util.h"
#include "whois/whois.h"

namespace perfbench {

// Per-layer samples, one value per close or run, keyed by metric name.
class LayerSamples {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto& series = series_[name];
    series.unit = unit;
    series.values.push_back(value);
  }
  // Each metric's median over its samples.
  void report_medians(Report& report) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

// The four mined dimensions, by the names the metrics use.
std::vector<std::string> dimension_names();

// Equivalent of SmashPipeline(config).run_preprocessed(pre, registry):
// dimensions fan out across config.num_threads exactly as
// mine_all_dimensions does, then correlation, pruning and campaign
// assembly. Records spans under `parent` (all with `id`) and one sample per
// layer into `samples`.
smash::core::SmashResult staged_mine(smash::core::PreprocessResult pre,
                                     const smash::whois::Registry& registry,
                                     const smash::core::SmashConfig& config,
                                     SpanRecorder& spans, std::uint64_t id,
                                     int parent, LayerSamples& samples);

}  // namespace perfbench
