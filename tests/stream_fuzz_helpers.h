// Shared streaming test machinery: the seeded random event schedule, its
// engine config, deep snapshot equality, and the tiny synthetic scenario.
// Used by the sync/async differential harness
// (tests/fuzz_equivalence_test.cc), the crash-recovery matrix
// (tests/recovery_equivalence_test.cc), the WAL corruption fuzzer, and the
// engine, serving and exporter tests. Deterministic from the seed via
// util::Rng, so a failing seed reproduces exactly (docs/TESTING.md).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "stream/snapshot.h"
#include "synth/scenarios.h"
#include "synth/stream_gen.h"
#include "util/rng.h"

namespace smash::test {

inline constexpr std::uint32_t kFuzzEpochSeconds = 600;

// A scenario small enough for unit tests whose campaigns the pipeline
// reliably detects (with 600 s epochs, a 6-epoch window and an IDF
// threshold of 50, which filters the 70 popular clients).
inline synth::StreamScenarioConfig tiny_scenario_config() {
  synth::StreamScenarioConfig config;
  config.seed = 11;
  config.duration_s = 6 * 600;
  config.benign_servers = 60;
  config.benign_clients = 40;
  config.benign_visits = 500;
  config.popular_servers = 2;
  config.popular_clients = 70;
  config.campaigns = 1;
  config.campaign_servers = 5;
  config.campaign_bots = 4;
  config.poll_interval_s = 120;
  config.active_fraction = 0.5;
  return config;
}

// Random timestamped schedule: bursts of benign browsing and campaign
// polling with occasional multi-epoch gaps and late (out-of-order) events.
// Time never exceeds ~10 epochs, so sync re-mines stay cheap.
inline std::vector<synth::StreamEvent> random_schedule(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x57fea11ULL);
  std::vector<synth::StreamEvent> events;
  std::uint64_t now = 1;

  const std::uint32_t campaign_servers =
      2 + static_cast<std::uint32_t>(rng.uniform(3));
  const std::uint32_t bots = 2 + static_cast<std::uint32_t>(rng.uniform(3));
  const std::uint64_t total_events = 600 + rng.uniform(400);

  for (std::uint64_t e = 0; e < total_events; ++e) {
    now += rng.uniform(20);
    if (rng.bernoulli(0.01)) {
      now += kFuzzEpochSeconds * (2 + rng.uniform(3));  // multi-epoch gap
    }
    if (now > 10 * kFuzzEpochSeconds) break;

    // 6% of events arrive late: stamped up to two epochs in the past, so
    // some fall behind the open epoch and take the late-drop/fold path.
    std::uint64_t stamp = now;
    if (rng.bernoulli(0.06)) {
      const std::uint64_t back = rng.uniform(2 * kFuzzEpochSeconds);
      stamp = back >= stamp ? 0 : stamp - back;
    }

    const std::uint64_t kind = rng.uniform(100);
    if (kind < 78) {
      stream::RequestEvent req;
      req.time_s = stamp;
      if (rng.bernoulli(0.45)) {  // campaign polling
        const auto c = rng.uniform(campaign_servers);
        req.client = "bot" + std::to_string(rng.uniform(bots));
        req.host = "evil" + std::to_string(c) + ".test";
        req.path = "/beacon.exe";
      } else {  // benign browsing
        req.client = "user" + std::to_string(rng.uniform(30));
        req.host = "site" + std::to_string(rng.uniform(25)) + ".org";
        req.path = "/page" + std::to_string(rng.uniform(6)) + ".html";
      }
      req.user_agent = "UA";
      events.emplace_back(std::move(req));
    } else if (kind < 92) {
      stream::ResolutionEvent res;
      res.time_s = stamp;
      if (rng.bernoulli(0.5)) {
        const auto c = rng.uniform(campaign_servers);
        res.host = "evil" + std::to_string(c) + ".test";
        res.ip = "10.9.0." + std::to_string(c % 3);
      } else {
        const auto s = rng.uniform(25);
        res.host = "site" + std::to_string(s) + ".org";
        res.ip = "192.168.1." + std::to_string(s);
      }
      events.emplace_back(std::move(res));
    } else {
      stream::RedirectEvent redir;
      redir.time_s = stamp;
      redir.from = "site" + std::to_string(rng.uniform(25)) + ".org";
      redir.to = "site" + std::to_string(rng.uniform(25)) + ".org";
      events.emplace_back(std::move(redir));
    }
  }
  return events;
}

inline stream::StreamConfig schedule_config(std::uint64_t seed, bool async) {
  stream::StreamConfig config;
  config.epoch_seconds = kFuzzEpochSeconds;
  config.window_epochs = 3 + static_cast<std::uint32_t>(seed % 3);
  config.drop_late_events = seed % 2 == 0;
  config.async_mining = async;
  config.smash.idf_threshold = 50;
  config.smash.num_threads = seed % 3 == 0 ? 4 : 1;
  return config;
}

// Deep equality of two published snapshots: the verdict index a reader
// sees must be byte-identical, not merely campaign-count equal.
inline void expect_identical_snapshots(const stream::DetectionSnapshot& a,
                                       const stream::DetectionSnapshot& b) {
  EXPECT_EQ(a.first_epoch(), b.first_epoch());
  EXPECT_EQ(a.last_epoch(), b.last_epoch());
  EXPECT_EQ(a.sequence(), b.sequence());
  EXPECT_EQ(a.window_requests(), b.window_requests());
  EXPECT_EQ(a.kept_servers(), b.kept_servers());
  EXPECT_EQ(a.num_malicious_servers(), b.num_malicious_servers());
  EXPECT_EQ(a.postings_budget_exceeded(), b.postings_budget_exceeded());
  EXPECT_EQ(a.louvain_stats(), b.louvain_stats());
  EXPECT_EQ(a.late_dropped(), b.late_dropped());
  EXPECT_EQ(a.late_folded(), b.late_folded());
  // digest() folds in every verdict-bearing field (campaigns plus the
  // sorted per-2LD and per-IP verdict maps), so one comparison covers the
  // whole reader-visible surface.
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.campaigns().size(), b.campaigns().size());
  for (std::size_t c = 0; c < a.campaigns().size(); ++c) {
    EXPECT_EQ(a.campaigns()[c].servers, b.campaigns()[c].servers);
    EXPECT_EQ(a.campaigns()[c].involved_clients,
              b.campaigns()[c].involved_clients);
    EXPECT_EQ(a.campaigns()[c].single_client, b.campaigns()[c].single_client);
    for (const auto& host : a.campaigns()[c].servers) {
      const auto* va = a.find_host(host);
      const auto* vb = b.find_host(host);
      ASSERT_NE(va, nullptr) << host;
      ASSERT_NE(vb, nullptr) << host;
      EXPECT_EQ(va->campaign, vb->campaign) << host;
      EXPECT_EQ(va->campaign_servers, vb->campaign_servers) << host;
      EXPECT_EQ(va->window_requests, vb->window_requests) << host;
      EXPECT_EQ(va->active_epochs, vb->active_epochs) << host;
    }
  }
}

// A seeded random scenario-library stream (src/synth/scenarios.h): benign
// background on an optional shared cloud pool, an optional popular head
// and flash crowd, and 0-2 campaigns with randomized naming, cadence and
// shared infrastructure. Shapes the plain random schedule never produces.
inline synth::Scenario random_matrix_scenario(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5ce7a210ULL);
  const std::uint64_t duration =
      (6 + rng.uniform(5)) * kFuzzEpochSeconds;
  synth::ScenarioBuilder builder("fuzz-scenario", seed, duration);
  const bool cloud = rng.bernoulli(0.5);
  if (cloud) {
    builder.enable_cloud_pool(4 + static_cast<std::uint32_t>(rng.uniform(6)));
  }

  synth::BenignSpec benign;
  benign.servers = 20 + static_cast<std::uint32_t>(rng.uniform(25));
  benign.clients = 15 + static_cast<std::uint32_t>(rng.uniform(20));
  benign.visits = 250 + static_cast<std::uint32_t>(rng.uniform(350));
  benign.arrival =
      rng.bernoulli(0.5) ? synth::Arrival::kDiurnal : synth::Arrival::kUniform;
  benign.cloud_fraction = cloud ? 0.3 : 0.0;
  builder.add_benign_background(benign);

  if (rng.bernoulli(0.3)) builder.add_popular_head(1, 80);
  if (rng.bernoulli(0.4)) {
    synth::FlashCrowdSpec crowd;
    crowd.servers = 3 + static_cast<std::uint32_t>(rng.uniform(3));
    // Below the idf_threshold of scenario_stream_config, or the spike is
    // filtered before it pressures anything.
    crowd.clients = 25 + static_cast<std::uint32_t>(rng.uniform(15));
    crowd.start_s = rng.uniform(duration);
    crowd.duration_s = kFuzzEpochSeconds * (1 + rng.uniform(2));
    builder.add_flash_crowd(crowd);
  }

  const std::uint64_t campaigns = rng.uniform(3);  // 0..2 (0 = benign-only)
  for (std::uint64_t k = 0; k < campaigns; ++k) {
    synth::CampaignSpec campaign;
    campaign.label = "fz" + std::to_string(k);
    campaign.servers = 2 + static_cast<std::uint32_t>(rng.uniform(5));
    campaign.bots = 2 + static_cast<std::uint32_t>(rng.uniform(4));
    campaign.start_s = rng.uniform(duration);
    // May land past the stream end: the builder clamps (or drops) it.
    campaign.end_s = campaign.start_s + 1 + rng.uniform(duration);
    campaign.poll_interval_s =
        120 + static_cast<std::uint32_t>(rng.uniform(600));
    campaign.request_jitter_s = rng.uniform(campaign.poll_interval_s);
    if (rng.bernoulli(0.3)) {
      campaign.naming = synth::CampaignSpec::Naming::kDga;
    }
    campaign.shared_filename = rng.bernoulli(0.7);
    campaign.shared_ips = rng.bernoulli(0.7);
    campaign.shared_whois = rng.bernoulli(0.5);
    campaign.cloud_fronted = cloud && rng.bernoulli(0.3);
    builder.add_campaign(campaign);
  }
  return std::move(builder).build();
}

}  // namespace smash::test
