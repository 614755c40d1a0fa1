#include "synth/quality.h"

#include <algorithm>
#include <set>
#include <string>

#include "stream/engine.h"

namespace smash::synth {

DetectionObservation observe(const stream::DetectionSnapshot& snapshot) {
  DetectionObservation observation;
  observation.last_epoch = snapshot.last_epoch();
  for (const auto& campaign : snapshot.campaigns()) {
    observation.flagged_2lds.insert(observation.flagged_2lds.end(),
                                    campaign.servers.begin(),
                                    campaign.servers.end());
  }
  return observation;
}

ScenarioQuality evaluate_quality(
    const std::string& scenario_name,
    const std::vector<DetectionObservation>& observations,
    const ScenarioTruth& truth, std::uint32_t epoch_seconds) {
  ScenarioQuality q;
  q.scenario = scenario_name;
  q.campaigns = truth.campaigns.size();
  const std::uint32_t epoch = std::max<std::uint32_t>(epoch_seconds, 1);

  std::set<std::string> truth_set;
  for (const auto& campaign : truth.campaigns) {
    truth_set.insert(campaign.servers.begin(), campaign.servers.end());
  }
  std::set<std::string> flagged;
  for (const auto& observation : observations) {
    flagged.insert(observation.flagged_2lds.begin(),
                   observation.flagged_2lds.end());
  }
  q.truth_servers = truth_set.size();
  q.flagged_2lds = flagged.size();
  for (const auto& label : flagged) {
    if (truth_set.count(label)) {
      ++q.true_positives;
    } else {
      ++q.false_positives;
    }
  }
  q.false_negatives = q.truth_servers - q.true_positives;

  q.precision = flagged.empty()
                    ? 1.0
                    : static_cast<double>(q.true_positives) /
                          static_cast<double>(flagged.size());
  q.recall = truth_set.empty()
                 ? 1.0
                 : static_cast<double>(q.true_positives) /
                       static_cast<double>(truth_set.size());
  q.f1 = (q.precision + q.recall) == 0.0
             ? 0.0
             : 2.0 * q.precision * q.recall / (q.precision + q.recall);

  // Per-campaign latency: activation epoch to the first publication whose
  // flagged set intersects the campaign's servers. A publication can close
  // the activation epoch itself, so latency 0 means "first possible window".
  double latency_sum = 0.0;
  for (const auto& campaign : truth.campaigns) {
    const stream::EpochId activation = campaign.start_s / epoch;
    bool detected = false;
    for (const auto& observation : observations) {
      const bool hit = std::any_of(
          campaign.servers.begin(), campaign.servers.end(),
          [&](const std::string& server) {
            return std::find(observation.flagged_2lds.begin(),
                             observation.flagged_2lds.end(),
                             server) != observation.flagged_2lds.end();
          });
      if (!hit) continue;
      detected = true;
      const double latency =
          observation.last_epoch > activation
              ? static_cast<double>(observation.last_epoch - activation)
              : 0.0;
      latency_sum += latency;
      q.detection_latency_epochs_max =
          std::max(q.detection_latency_epochs_max, latency);
      break;
    }
    if (detected) ++q.campaigns_detected;
  }
  if (q.campaigns_detected > 0) {
    q.detection_latency_epochs_mean =
        latency_sum / static_cast<double>(q.campaigns_detected);
  }
  return q;
}

QualityFloor floor_for(const std::string& scenario_name) {
  // Floors for the tracked matrix families sit at the recorded baseline
  // (docs/QUALITY.md: every scenario detects at 1.000 precision / 1.000
  // recall with 0 false-positive 2LDs) minus a small epsilon, so any real
  // regression — one mis-flagged 2LD, one missed server, one extra epoch
  // of latency beyond the slack — fails the matrix. The latency ceilings
  // are the recorded maxima (0 epochs everywhere; 1 for slow_burn under
  // --smoke) plus one epoch. Names outside the matrix keep the
  // default-constructed permissive floor, so ad-hoc scenarios can reuse
  // the evaluator before a baseline exists for them.
  static const std::set<std::string> kMatrix = {
      "staggered_campaigns", "slow_burn_window_straddle",
      "cdn_cloud_fronted",   "dga_burst",
      "flash_crowd_benign",  "diurnal_jitter",
      "combined_stress"};
  QualityFloor floor;
  if (!kMatrix.count(scenario_name)) return floor;
  floor.min_precision = 0.995;
  floor.min_recall = 0.995;
  floor.max_false_positive_2lds = 0;
  floor.max_detection_latency_epochs = 1.0;
  if (scenario_name == "slow_burn_window_straddle") {
    floor.max_detection_latency_epochs = 2.0;
  } else if (scenario_name == "flash_crowd_benign") {
    floor.min_precision = 1.0;  // vacuously true when nothing is flagged
    floor.min_recall = 1.0;     // no campaigns: recall is vacuous too
    floor.max_detection_latency_epochs = 0.0;
  }
  return floor;
}

std::string describe_vs_floor(const ScenarioQuality& q,
                              const QualityFloor& floor) {
  std::string out;
  const auto line = [&](const std::string& text) {
    out += "  " + q.scenario + ": " + text + "\n";
  };
  line("precision " + std::to_string(q.precision) + " (floor >= " +
       std::to_string(floor.min_precision) + ")");
  line("recall " + std::to_string(q.recall) + " (floor >= " +
       std::to_string(floor.min_recall) + ")");
  line("detection latency max " +
       std::to_string(q.detection_latency_epochs_max) +
       " epochs (floor <= " +
       std::to_string(floor.max_detection_latency_epochs) + ")");
  line("false-positive 2LDs " + std::to_string(q.false_positives) +
       " (floor <= " + std::to_string(floor.max_false_positive_2lds) + ")");
  line("campaigns detected " + std::to_string(q.campaigns_detected) + " of " +
       std::to_string(q.campaigns));
  return out;
}

bool meets_floor(const ScenarioQuality& q, const QualityFloor& floor,
                 std::string* why) {
  bool ok = true;
  const auto violation = [&](const std::string& line) {
    ok = false;
    if (why != nullptr) {
      if (!why->empty()) *why += "\n";
      *why += q.scenario + ": " + line;
    }
  };
  if (q.precision < floor.min_precision) {
    violation("precision " + std::to_string(q.precision) + " < floor " +
              std::to_string(floor.min_precision));
  }
  if (q.recall < floor.min_recall) {
    violation("recall " + std::to_string(q.recall) + " < floor " +
              std::to_string(floor.min_recall));
  }
  if (q.detection_latency_epochs_max > floor.max_detection_latency_epochs) {
    violation("detection latency " +
              std::to_string(q.detection_latency_epochs_max) +
              " epochs > floor " +
              std::to_string(floor.max_detection_latency_epochs));
  }
  if (q.false_positives > floor.max_false_positive_2lds) {
    violation("false-positive 2LDs " + std::to_string(q.false_positives) +
              " > floor " + std::to_string(floor.max_false_positive_2lds));
  }
  if (q.campaigns_detected < q.campaigns && floor.min_recall > 0.0) {
    violation("campaigns detected " + std::to_string(q.campaigns_detected) +
              " of " + std::to_string(q.campaigns));
  }
  return ok;
}

ScenarioRun run_scenario(const Scenario& scenario,
                         const stream::StreamConfig& config) {
  stream::StreamEngine engine(config, scenario.whois);
  ScenarioRun run;
  std::uint64_t seen = 0;
  const auto probe = [&] {
    if (engine.snapshots_published() == seen) return;
    seen = engine.snapshots_published();
    const auto snapshot = engine.snapshot();
    if (snapshot == nullptr) return;
    run.observations.push_back(observe(*snapshot));
  };
  for (const auto& event : scenario.events) {
    ingest_event(engine, event);
    probe();
  }
  engine.finish();
  probe();
  return run;
}

}  // namespace smash::synth
