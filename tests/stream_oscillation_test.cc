// The async engine under a swinging load: the offered epoch-close rate
// follows a sine (stepped in stages, the shape of heyp-agents'
// GenWorkloadStagesOscillating) whose peak outruns mining, capped
// deterministically by a StreamConfig::mine_test_hook that sleeps.
// Coalescing must keep every close accounted, the mining queue at most two
// windows deep, and close-to-publish latency bounded through the overload
// half of the cycle. The test prints the freshness curve over the cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "stream/engine.h"

namespace smash::stream {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kEpochSeconds = 60;
constexpr std::uint32_t kEventsPerEpoch = 4;
constexpr std::uint32_t kThrottleMs = 25;  // caps mining near 40 windows/s
// One cycle of kStages stages of kStageMs each; the offered close rate
// swings between kMinRate and kMaxRate epochs per wall-clock second.
constexpr int kStages = 20;
constexpr double kStageMs = 100.0;
constexpr double kMinRate = 10.0;
constexpr double kMaxRate = 100.0;

double offered_rate(int stage) {
  const double half = (kMaxRate - kMinRate) / 2;
  return kMinRate + half + half * std::sin(2 * std::numbers::pi * stage / kStages);
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

RequestEvent request(std::uint64_t time_s, std::uint64_t client, std::uint64_t host) {
  static const char* const kClients[] = {"c0", "c1", "c2"};
  static const char* const kHosts[] = {"h0.com", "h1.com", "h2.com", "h3.com", "h4.com"};
  RequestEvent e;
  e.time_s = time_s;
  e.client = kClients[client % 3];
  e.host = kHosts[host % 5];
  e.path = "/x.html";
  e.user_agent = "UA";
  return e;
}

TEST(StreamOscillatingLoad, CoalescingBoundsFreshnessAcrossCycle) {
  const whois::Registry registry;
  StreamConfig config;
  config.epoch_seconds = kEpochSeconds;
  config.window_epochs = 4;
  config.async_mining = true;
  config.mine_test_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(kThrottleMs));
  };
  config.smash.idf_threshold = 50;
  StreamEngine engine(config, registry);
  const obs::Gauge& depth = engine.metrics()->gauge("stream.mine_queue_depth");

  std::atomic<bool> stop{false};
  std::atomic<double> max_depth{0.0};
  std::thread sampler([&] {
    while (!stop.load()) {
      max_depth.store(std::max(max_depth.load(), depth.value()));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Gap-free feed: epoch e's events all carry event times inside epoch e
  // and are ingested at its scheduled wall start, so the first event of
  // epoch e + 1 closes exactly epoch e. epoch_start[e] is that wall time.
  std::vector<Clock::time_point> epoch_start;
  std::vector<int> epoch_stage;
  const auto start = Clock::now();
  double at_ms = 0.0;
  for (std::uint64_t epoch = 0;; ++epoch) {
    const int stage = static_cast<int>(at_ms / kStageMs);
    if (stage >= kStages) break;
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<std::int64_t>(at_ms * 1000)));
    epoch_start.push_back(Clock::now());
    epoch_stage.push_back(stage);
    for (std::uint32_t k = 0; k < kEventsPerEpoch; ++k) {
      engine.ingest(request(epoch * kEpochSeconds + k, k, epoch + k));
    }
    at_ms += 1000.0 / offered_rate(stage);
  }
  const auto finish_at = Clock::now();
  engine.finish();
  stop.store(true);
  sampler.join();
  const std::size_t epochs = epoch_start.size();
  epoch_start.push_back(finish_at);  // the last epoch closes at finish()

  // Every close is published or was coalesced away — never lost.
  EXPECT_EQ(engine.epochs_closed_total(), epochs);
  EXPECT_EQ(engine.snapshots_published() + engine.windows_coalesced(),
            engine.epochs_closed_total());
  // The peak really outran mining, and the queue stayed at two windows.
  EXPECT_GT(engine.windows_coalesced(), 0u);
  EXPECT_LE(max_depth.load(), 2.0);

  const auto records = engine.close_records();
  ASSERT_EQ(records.size(), engine.snapshots_published());
  double max_mine_ms = 0.0;
  for (const auto& record : records) max_mine_ms = std::max(max_mine_ms, record.mine_ms);
  // A close waits at most for the mine in flight, then its own mine.
  const double epoch_wall_ms = 1000.0 / kMinRate;
  const double bound_ms = epoch_wall_ms + 2 * (max_mine_ms + kThrottleMs);

  struct StageRow {
    std::uint64_t closes = 0, publications = 0;
    double max_close_ms = 0.0, max_fresh_ms = 0.0;
  };
  std::vector<StageRow> rows(kStages);
  for (std::size_t e = 0; e < epochs; ++e) ++rows[epoch_stage[e]].closes;
  for (const auto& record : records) {
    EXPECT_LE(record.total_ms, bound_ms) << "epoch " << record.last_epoch;
    // Event-to-publish freshness: the newest window's first event waited
    // for its epoch to close, then for the close to publish.
    const auto e = static_cast<std::size_t>(record.last_epoch);
    auto& row = rows[epoch_stage[e]];
    ++row.publications;
    row.max_close_ms = std::max(row.max_close_ms, record.total_ms);
    row.max_fresh_ms = std::max(
        row.max_fresh_ms,
        ms_between(epoch_start[e], epoch_start[e + 1]) + record.total_ms);
  }

  std::printf("freshness over one cycle (%zu closes, %llu coalesced, "
              "bound %.1f ms):\n",
              epochs, static_cast<unsigned long long>(engine.windows_coalesced()),
              bound_ms);
  std::printf("stage  offered/s  closes  published  close->publish max ms  "
              "event->publish max ms\n");
  for (int s = 0; s < kStages; ++s) {
    std::printf("%5d  %9.1f  %6llu  %9llu  %21.1f  %21.1f\n", s, offered_rate(s),
                static_cast<unsigned long long>(rows[s].closes),
                static_cast<unsigned long long>(rows[s].publications),
                rows[s].max_close_ms, rows[s].max_fresh_ms);
  }
}

}  // namespace
}  // namespace smash::stream
