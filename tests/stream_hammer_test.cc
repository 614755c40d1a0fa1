// Concurrency hammer for the serving path: N reader threads fire
// VerdictService::lookup / lookup_request nonstop while snapshots publish
// underneath — windows sliding in sync mode, async mining with forced
// skip-to-newest coalescing, and a recovered engine republishing after a
// restart. TSan (CI's tsan job runs *Stream* tests) holds the SnapshotSlot
// swap to being race-free; the inline invariants hold every answer to
// being coherent, never torn: a malicious verdict always carries its
// campaign detail, an available snapshot always carries a positive
// sequence and a non-negative read-time age, and the sequence a single
// thread observes never moves backwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "stream/engine.h"
#include "stream/verdict.h"
#include "synth/stream_gen.h"

namespace smash::stream {
namespace {

synth::StreamScenarioConfig hammer_scenario_config() {
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

StreamConfig hammer_stream_config() {
  StreamConfig config;
  // A window shorter than the scenario so epochs slide out mid-feed:
  // publications replace snapshots whose verdict sets genuinely differ.
  config.epoch_seconds = 600;
  config.window_epochs = 3;
  config.smash.idf_threshold = 50;
  return config;
}

// One reader: alternates lookup() and lookup_request() across campaign,
// benign and unknown keys, checking per-answer coherence and that its own
// view of the snapshot sequence never regresses.
void hammer_reader(const VerdictService& service,
                   const std::vector<std::string>& hosts,
                   const std::atomic<bool>& stop,
                   std::atomic<std::uint64_t>& reads) {
  std::uint64_t last_sequence = 0;
  std::size_t i = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto& host = hosts[i++ % hosts.size()];
    const VerdictAnswer answer =
        (i % 2 == 0) ? service.lookup(host)
                     : service.lookup_request(host, "198.51.100.7");
    if (answer.snapshot_available) {
      ASSERT_GE(answer.snapshot_sequence, 1u);
      ASSERT_GE(answer.snapshot_sequence, last_sequence)
          << "a thread's snapshot view moved backwards";
      last_sequence = answer.snapshot_sequence;
      ASSERT_GE(answer.snapshot_age_s, 0.0);
    } else {
      ASSERT_EQ(answer.snapshot_sequence, 0u);
      ASSERT_LT(answer.snapshot_age_s, 0.0);
    }
    if (answer.malicious) {
      ASSERT_GE(answer.verdict.campaign_servers, 1u);
    }
    reads.fetch_add(1, std::memory_order_relaxed);
  }
}

struct HammerRun {
  std::uint64_t reads = 0;
};

// Feeds `engine` the scenario with `threads` readers attached, joining
// them after finish(). Shared by all three publication modes.
HammerRun run_hammer(StreamEngine& engine, const synth::StreamScenario& scenario,
                     int threads = 4) {
  const VerdictService service(engine.slot());
  std::vector<std::string> hosts;
  for (const auto& campaign : scenario.campaigns) {
    hosts.insert(hosts.end(), campaign.servers.begin(),
                 campaign.servers.end());
    hosts.push_back("www." + campaign.servers[0]);
  }
  hosts.push_back("site3.org");
  hosts.push_back("unknown.example");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back(
        [&] { hammer_reader(service, hosts, stop, reads); });
  }
  synth::feed(engine, scenario);
  engine.finish();
  stop.store(true);
  for (auto& reader : readers) reader.join();
  return {reads.load()};
}

TEST(StreamHammer, SyncPublicationWithSlidingWindows) {
  const auto scenario = synth::generate_stream(hammer_scenario_config());
  StreamEngine engine(hammer_stream_config(), scenario.whois);
  const auto run = run_hammer(engine, scenario);
  EXPECT_GT(run.reads, 0u);
  EXPECT_GT(engine.snapshots_published(), 1u)
      << "the hammer must race real publications";
}

TEST(StreamHammer, AsyncCoalescedPublication) {
  const auto scenario = synth::generate_stream(hammer_scenario_config());
  StreamConfig config = hammer_stream_config();
  config.async_mining = true;
  // Slow each mine enough that closes pile up behind it and coalesce —
  // publications then skip windows, the racier schedule.
  config.mine_test_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  StreamEngine engine(config, scenario.whois);
  const auto run = run_hammer(engine, scenario);
  EXPECT_GT(run.reads, 0u);
  ASSERT_NE(engine.snapshot(), nullptr);
  // Every close is accounted for even when windows were skipped.
  EXPECT_EQ(engine.snapshot()->sequence(), engine.epochs_closed_total());
}

TEST(StreamHammer, RecoveredEngineRepublishes) {
  const auto scenario = synth::generate_stream(hammer_scenario_config());
  const auto dir = std::filesystem::temp_directory_path() /
                   "smash_serve_hammer_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  StreamConfig config = hammer_stream_config();
  config.durability_dir = dir.string();

  // First life: feed the front half, shut down cleanly (the WAL holds the
  // full story).
  const std::size_t cut = scenario.events.size() / 2;
  {
    StreamEngine first(config, scenario.whois);
    for (std::size_t i = 0; i < cut; ++i) {
      synth::ingest_event(first, scenario.events[i]);
    }
  }

  // Second life: recover() republishes the restored window, then the
  // readers race the post-recovery publications.
  auto recovered = StreamEngine::recover(config, scenario.whois);
  ASSERT_TRUE(recovered->recovery_stats().recovered);

  const VerdictService service(recovered->slot());
  // The republished snapshot is visible before any new epoch closes.
  const bool republished = service.stats().snapshot_available;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::string> hosts{scenario.campaigns[0].servers[0],
                                 "site3.org", "unknown.example"};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back(
        [&] { hammer_reader(service, hosts, stop, reads); });
  }
  for (std::size_t i = cut; i < scenario.events.size(); ++i) {
    synth::ingest_event(*recovered, scenario.events[i]);
  }
  recovered->finish();
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(reads.load(), 0u);
  ASSERT_NE(recovered->snapshot(), nullptr);
  // The first life closed at least one epoch, so recover() republished.
  EXPECT_TRUE(republished);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smash::stream
