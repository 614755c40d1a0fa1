// Detection-quality evaluation against scenario ground truth: given the
// stream of DetectionSnapshot publications an engine produced over a
// scenario (reduced to DetectionObservations) and the scenario's
// ScenarioTruth, compute per-scenario precision, recall, F1, the
// false-positive 2LD count, and per-campaign detection latency in epochs.
// Pure functions over plain data, so tests can score hand-built
// observations without an engine; run_scenario() is the engine-backed
// convenience the bench and end-to-end tests share. Floors (floor_for)
// live here too, next to the metric definitions they constrain
// (docs/QUALITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stream/snapshot.h"
#include "stream/stream_config.h"
#include "synth/scenarios.h"

namespace smash::synth {

// One engine publication reduced to what quality scoring needs.
struct DetectionObservation {
  stream::EpochId last_epoch = 0;         // newest epoch of the mined window
  std::vector<std::string> flagged_2lds;  // every server of every campaign
};

DetectionObservation observe(const stream::DetectionSnapshot& snapshot);

struct ScenarioQuality {
  std::string scenario;
  std::size_t truth_servers = 0;   // distinct campaign 2LDs in truth
  std::size_t flagged_2lds = 0;    // distinct 2LDs flagged across publications
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;  // == the false-positive 2LD count
  std::size_t false_negatives = 0;
  // Precision/recall are 1.0 when their denominator is empty (flagging
  // nothing in an all-benign scenario is perfect, not undefined); F1 is 0
  // when both are 0.
  double precision = 1.0;
  double recall = 1.0;
  double f1 = 1.0;
  std::size_t campaigns = 0;
  std::size_t campaigns_detected = 0;
  // Epochs from campaign activation (start_s / epoch_seconds) to the first
  // publication flagging any of its servers; over detected campaigns only.
  double detection_latency_epochs_mean = 0.0;
  double detection_latency_epochs_max = 0.0;
};

// Scores one scenario: observations in publication order, truth from the
// generator, epoch_seconds from the engine config the observations came
// from. Flagged sets are unioned across publications — a campaign counts as
// detected (and its servers as true positives) if any window flagged it.
ScenarioQuality evaluate_quality(const std::string& scenario_name,
                                 const std::vector<DetectionObservation>& observations,
                                 const ScenarioTruth& truth,
                                 std::uint32_t epoch_seconds);

// Minimum acceptable quality for one scenario; quality_matrix exits
// non-zero when any tracked scenario falls below its floor.
struct QualityFloor {
  double min_precision = 0.0;
  double min_recall = 0.0;
  double max_detection_latency_epochs = 1e9;
  std::size_t max_false_positive_2lds = static_cast<std::size_t>(-1);
};

// The tracked floor for a matrix scenario family (by scenario name).
// Unknown names get a permissive default floor, so adding a scenario never
// fails the gate before its baseline is recorded.
QualityFloor floor_for(const std::string& scenario_name);

// True when `q` meets `floor`; on failure appends one line per violated
// bound to `why` (when non-null).
bool meets_floor(const ScenarioQuality& q, const QualityFloor& floor,
                 std::string* why = nullptr);

// Every tracked metric as "actual (floor ...)" lines — quality_matrix
// prints this on a floor violation so the failure shows the whole picture,
// not just the bounds that broke.
std::string describe_vs_floor(const ScenarioQuality& q,
                              const QualityFloor& floor);

// --- engine-backed evaluation -------------------------------------------------

struct ScenarioRun {
  std::vector<DetectionObservation> observations;  // one per publication
};

// Feeds the scenario through a fresh StreamEngine under `config` (probing
// after every ingest so each publication is captured exactly once),
// finishes, and returns the publication trail. The scenario's whois
// registry backs the engine.
ScenarioRun run_scenario(const Scenario& scenario,
                         const stream::StreamConfig& config);

}  // namespace smash::synth
