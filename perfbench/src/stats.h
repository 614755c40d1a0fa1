// The benchmark's own accounting, kept free of program headers so the
// self-tests (tests/selftest.cc) exercise exactly what the workloads use:
//  - the percentile rule (a median plus the highest percentile that has at
//    least ten samples beyond it);
//  - open-loop offered-rate accounting (requests sent divided by the
//    scheduled duration, never a per-request mean);
//  - freshness matching: each epoch close to the first response whose
//    snapshot_sequence covers it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least q·n samples
// at or below it. `sorted` must be ascending and non-empty.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

inline constexpr std::size_t kMinTailSamples = 10;

// Whether the q-percentile of n samples is reportable under the rule.
inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

// Nearest-rank q-percentile of unsorted samples (0 when empty).
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;      // highest supported of {0.9, 0.99, 0.999}; 0 = none
  double tail_value = 0.0;
  double max = 0.0;
};

// Median plus the highest of p90/p99/p999 that has at least ten samples
// beyond it.
inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.5);
  s.max = samples.back();
  for (const double q : {0.999, 0.99, 0.9}) {
    if (percentile_supported(s.n, q)) {
      s.tail_q = q;
      s.tail_value = percentile_sorted(samples, q);
      break;
    }
  }
  return s;
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// --- open-loop schedule ------------------------------------------------------

// One fixed-rate step of the open-loop schedule: request k is due at
// step start + k / rate, for every k with k / rate < duration.
struct RateStep {
  double rate = 0.0;        // lookups per second
  double duration_s = 0.0;

  std::uint64_t scheduled() const {
    return static_cast<std::uint64_t>(std::ceil(rate * duration_s - 1e-9));
  }
  // Offset of request k from the step start, in seconds.
  double due_s(std::uint64_t k) const { return static_cast<double>(k) / rate; }
};

// Requests sent divided by the scheduled duration. A sender that falls
// behind and never catches up shows as an offered rate below the nominal
// one; a per-request mean of the nominal rate would hide it.
inline double offered_rate(std::uint64_t sent, double scheduled_duration_s) {
  return scheduled_duration_s > 0.0
             ? static_cast<double>(sent) / scheduled_duration_s
             : 0.0;
}

// Responses received divided by the time from the step's start to its
// last response: falls below the offered rate once the server queues.
inline double achieved_rate(std::uint64_t received, double first_due_to_last_response_s) {
  return first_due_to_last_response_s > 0.0
             ? static_cast<double>(received) / first_due_to_last_response_s
             : 0.0;
}

// --- freshness ---------------------------------------------------------------

// An epoch close seen by the feeder: the close counted as `sequence` (the
// engine's epoch-close count, which is what DetectionSnapshot::sequence()
// carries) and the time the last event of the closed epoch was ingested.
struct CloseMark {
  std::uint64_t sequence = 0;
  std::int64_t last_event_ns = 0;
};

// The first response observed for a given snapshot sequence.
struct SequenceSeen {
  std::uint64_t sequence = 0;
  std::int64_t first_response_ns = 0;
};

struct FreshnessMatch {
  std::vector<double> freshness_ms;  // one per matched close
  std::size_t unmatched = 0;         // closes no response ever covered
};

// A response citing sequence s covers every close with sequence <= s: a
// publication that coalesced several closes makes all of them visible at
// once. Each close's freshness is the earliest response covering it minus
// the time its epoch's last event was ingested.
inline FreshnessMatch match_freshness(const std::vector<CloseMark>& closes,
                                      std::vector<SequenceSeen> seen) {
  FreshnessMatch out;
  std::sort(seen.begin(), seen.end(),
            [](const SequenceSeen& a, const SequenceSeen& b) {
              return a.sequence < b.sequence;
            });
  // earliest[i] = min first_response_ns over seen[i..]: the first moment a
  // response covered sequence seen[i].sequence or anything newer.
  std::vector<std::int64_t> earliest(seen.size());
  std::int64_t running = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = seen.size(); i-- > 0;) {
    running = std::min(running, seen[i].first_response_ns);
    earliest[i] = running;
  }
  for (const auto& close : closes) {
    const auto it = std::lower_bound(
        seen.begin(), seen.end(), close.sequence,
        [](const SequenceSeen& s, std::uint64_t k) { return s.sequence < k; });
    if (it == seen.end()) {
      ++out.unmatched;
      continue;
    }
    const auto at = earliest[static_cast<std::size_t>(it - seen.begin())];
    out.freshness_ms.push_back(static_cast<double>(at - close.last_event_ns) / 1e6);
  }
  return out;
}

}  // namespace perfbench
