// Streaming subsystem units: epoch bucketing, window ring + incremental
// aggregates, snapshot verdict index, RCU-style snapshot swap, verdict
// service counters, and JoinStats surfacing into snapshots.
#include "stream/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stream/ingest.h"
#include "stream/verdict.h"
#include "stream_fuzz_helpers.h"
#include "synth/stream_gen.h"
#include "test_helpers.h"

namespace smash::stream {
namespace {

using test::tiny_scenario_config;

RequestEvent req(std::uint64_t time_s, std::string client, std::string host,
                 std::string path = "/x.html") {
  RequestEvent e;
  e.time_s = time_s;
  e.client = std::move(client);
  e.host = std::move(host);
  e.path = std::move(path);
  e.user_agent = "UA";
  return e;
}

ResolutionEvent res(std::uint64_t time_s, std::string host, std::string ip) {
  ResolutionEvent e;
  e.time_s = time_s;
  e.host = std::move(host);
  e.ip = std::move(ip);
  return e;
}

StreamConfig small_config(std::uint32_t epoch_s = 100,
                          std::uint32_t window = 3) {
  StreamConfig config;
  config.epoch_seconds = epoch_s;
  config.window_epochs = window;
  config.smash.idf_threshold = 50;
  return config;
}

TEST(StreamIngestor, BucketsEventsIntoEpochs) {
  StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/10));
  EXPECT_FALSE(ingestor.has_open_epoch());

  EXPECT_TRUE(ingestor.ingest(req(10, "c1", "a.com")).accepted);
  EXPECT_TRUE(ingestor.has_open_epoch());
  EXPECT_EQ(ingestor.open_epoch(), 0u);

  // Crossing into epoch 2 closes epochs 0 and 1 (1 is empty).
  const auto result = ingestor.ingest(req(250, "c2", "b.com"));
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.epochs_closed, 2u);
  EXPECT_EQ(ingestor.open_epoch(), 2u);
  ASSERT_EQ(ingestor.window().size(), 2u);
  EXPECT_EQ(ingestor.window()[0]->id(), 0u);
  EXPECT_EQ(ingestor.window()[0]->num_requests(), 1u);
  EXPECT_EQ(ingestor.window()[1]->id(), 1u);
  EXPECT_TRUE(ingestor.window()[1]->empty());
  EXPECT_EQ(ingestor.stats().requests, 2u);
}

TEST(StreamIngestor, DropsOrFoldsLateEvents) {
  StreamIngestor dropping(small_config());
  dropping.ingest(req(250, "c1", "a.com"));  // opens epoch 2
  EXPECT_FALSE(dropping.ingest(req(50, "c2", "b.com")).accepted);
  EXPECT_EQ(dropping.stats().late_dropped, 1u);
  EXPECT_EQ(dropping.stats().requests, 1u);

  StreamConfig folding = small_config();
  folding.drop_late_events = false;
  StreamIngestor folder(folding);
  folder.ingest(req(250, "c1", "a.com"));
  EXPECT_TRUE(folder.ingest(req(50, "c2", "b.com")).accepted);
  EXPECT_EQ(folder.stats().late_folded, 1u);
  EXPECT_EQ(folder.stats().requests, 2u);
}

TEST(StreamIngestor, WindowRingEvictsAndAggregatesIncrementally) {
  // Window of 2 epochs; the same 2LD is hit in epochs 0, 1, 2.
  StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/2));
  ingestor.ingest(req(10, "c1", "a.com"));
  ingestor.ingest(req(20, "c1", "only-epoch0.com"));
  ingestor.ingest(req(110, "c2", "www.a.com"));  // aggregates to a.com
  ingestor.ingest(req(210, "c3", "a.com"));
  ingestor.close_epoch();  // seal epoch 2; window now epochs [1, 2]

  ASSERT_EQ(ingestor.window().size(), 2u);
  EXPECT_EQ(ingestor.window().front()->id(), 1u);

  const auto* a = ingestor.aggregates().find("a.com");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->requests, 2u);       // epoch 0's hit evicted
  EXPECT_EQ(a->active_epochs, 2u);  // present in epochs 1 and 2
  // Evicted-only server vanishes from the window aggregates entirely.
  EXPECT_EQ(ingestor.aggregates().find("only-epoch0.com"), nullptr);
  EXPECT_EQ(ingestor.aggregates().window_requests(), 2u);
}

TEST(StreamIngestor, FarFutureGapIsBoundedAndEquivalent) {
  // A gap wider than the window fast-forwards instead of closing epochs
  // one by one (a corrupt far-future timestamp must not hang the writer).
  const auto drive = [](StreamIngestor& ingestor, std::uint64_t gap_to) {
    ingestor.ingest(req(10, "c1", "a.com"));
    ingestor.ingest(req(gap_to, "c2", "b.com"));
  };

  // Equivalence at a modest gap: fast path (window=3) vs what the ring
  // must look like afterwards — all-empty window ending just before the
  // new open epoch, no aggregates.
  StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/3));
  drive(ingestor, 900);  // epoch 9; gap of 9 > window 3
  EXPECT_EQ(ingestor.open_epoch(), 9u);
  ASSERT_EQ(ingestor.window().size(), 3u);
  EXPECT_EQ(ingestor.window().front()->id(), 6u);
  EXPECT_EQ(ingestor.window().back()->id(), 8u);
  for (const auto& shard : ingestor.window()) EXPECT_TRUE(shard->empty());
  EXPECT_EQ(ingestor.aggregates().num_servers(), 0u);

  // The pathological case completes instantly and ingest keeps working.
  StreamIngestor far(small_config(/*epoch_s=*/3600, /*window=*/24));
  drive(far, 4'000'000'000ULL);  // ~126 years in
  EXPECT_EQ(far.open_epoch(), 4'000'000'000ULL / 3600);
  EXPECT_EQ(far.window().size(), 24u);
  EXPECT_TRUE(far.ingest(req(4'000'000'100ULL, "c3", "c.com")).accepted);
  EXPECT_EQ(far.stats().requests, 3u);
}

TEST(StreamIngestor, AssembledWindowMatchesShardContents) {
  StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/4));
  ingestor.ingest(req(10, "c1", "a.com"));
  ingestor.ingest(res(20, "a.com", "1.1.1.1"));
  ingestor.ingest(req(150, "c2", "b.com"));
  ingestor.ingest(res(160, "b.com", "2.2.2.2"));
  ingestor.close_epoch();

  const net::Trace window = ingestor.assemble_window();
  EXPECT_EQ(window.num_requests(), 2u);
  EXPECT_EQ(window.num_clients(), 2u);
  EXPECT_EQ(window.ips_of(*window.servers().find("a.com")).size(), 1u);
  EXPECT_EQ(window.ips_of(*window.servers().find("b.com")).size(), 1u);
}

StreamConfig tiny_stream_config(unsigned threads = 1) {
  StreamConfig config;
  config.epoch_seconds = 600;
  config.window_epochs = 6;
  config.smash.idf_threshold = 50;  // popular_clients = 70 get filtered
  config.smash.num_threads = threads;
  return config;
}

TEST(StreamEngine, PublishesSnapshotsAndServesVerdicts) {
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  StreamEngine engine(tiny_stream_config(), scenario.whois);
  const VerdictService service(engine.slot());

  // Before any epoch closes there is no snapshot.
  EXPECT_EQ(engine.snapshot(), nullptr);
  EXPECT_FALSE(service.lookup("c0-s0.biz").snapshot_available);

  synth::feed(engine, scenario);
  engine.finish();

  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GT(engine.snapshots_published(), 0u);
  // Sequences count epoch closes: the final snapshot accounts for every
  // close, and publications can only lag when windows were skipped.
  EXPECT_EQ(snapshot->sequence(), engine.epochs_closed_total());
  EXPECT_GE(snapshot->sequence(), engine.snapshots_published());
  EXPECT_FALSE(snapshot->campaigns().empty());

  // Every campaign server is flagged, by 2LD, by subdomain, and by IP, and
  // the verdict carries the server's sliding-window activity from the
  // incrementally merged aggregates.
  const auto& truth = scenario.campaigns[0];
  for (const auto& host : truth.servers) {
    const auto answer = service.lookup(host);
    EXPECT_TRUE(answer.malicious) << host;
    EXPECT_TRUE(answer.snapshot_available);
    EXPECT_EQ(answer.verdict.campaign_servers, truth.servers.size());
    EXPECT_GT(answer.verdict.window_requests, 0u) << host;
    EXPECT_GE(answer.verdict.active_epochs, 1u) << host;
  }
  EXPECT_TRUE(service.lookup("www." + truth.servers[0]).malicious);
  EXPECT_TRUE(service.lookup_request("unknown.example", "198.51.0.1").malicious);

  // Benign hosts stay clean.
  EXPECT_FALSE(service.lookup("site3.org").malicious);
  EXPECT_FALSE(service.lookup_request("site4.org", "203.0.0.4").malicious);

  const auto stats = service.stats();
  // The pre-feed lookup plus: one per campaign server, the subdomain
  // lookup, the IP lookup, and the two benign lookups.
  EXPECT_EQ(stats.queries,
            static_cast<std::uint64_t>(truth.servers.size()) + 5);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(truth.servers.size()) + 2);
  EXPECT_GT(stats.hit_rate, 0.0);
  EXPECT_TRUE(stats.snapshot_available);
  EXPECT_GE(stats.snapshot_age_s, 0.0);

  // Close records carry the latency breakdown for every publication, and
  // their epochs_closed counts account for every close with none skipped
  // silently.
  const auto records = engine.close_records();
  ASSERT_EQ(records.size(), engine.snapshots_published());
  std::uint64_t accounted = 0;
  for (const auto& record : records) {
    EXPECT_GE(record.total_ms,
              record.mine_ms);  // total includes assemble + mine + snapshot
    EXPECT_LE(record.window_epochs, engine.config().window_epochs);
    EXPECT_GE(record.epochs_closed, 1u);
    accounted += record.epochs_closed;
  }
  EXPECT_EQ(accounted, engine.epochs_closed_total());
}

TEST(StreamEngine, VerdictWindowStatsMatchLiveAggregates) {
  // The mining thread rebuilds the per-2LD window stats from the captured
  // shards; every published verdict must carry exactly the ingestor's
  // incrementally maintained stats for its window, slid windows included.
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  StreamConfig config = tiny_stream_config();
  config.window_epochs = 3;
  StreamEngine engine(config, scenario.whois);
  std::uint64_t seen = 0;
  std::size_t checked = 0;
  const auto check_published = [&] {
    if (engine.snapshots_published() == seen) return;
    seen = engine.snapshots_published();
    const auto snapshot = engine.snapshot();
    ASSERT_NE(snapshot, nullptr);
    for (const auto& campaign : snapshot->campaigns()) {
      for (const auto& server : campaign.servers) {
        const auto* verdict = snapshot->find_host(server);
        const auto* live = engine.ingestor().aggregates().find(server);
        ASSERT_NE(verdict, nullptr);
        ASSERT_NE(live, nullptr);
        EXPECT_EQ(verdict->window_requests, live->requests) << server;
        EXPECT_EQ(verdict->active_epochs, live->active_epochs) << server;
        ++checked;
      }
    }
  };
  for (const auto& event : scenario.events) {
    synth::ingest_event(engine, event);
    check_published();
  }
  engine.finish();
  check_published();
  EXPECT_GT(engine.ingestor().window().size(), 1u);
  EXPECT_GT(checked, 0u);
}

TEST(StreamEngine, SnapshotSwapIsSafeUnderConcurrentReaders) {
  // Readers hammer the slot while the writer publishes snapshot after
  // snapshot; ASan/UBSan (CI) would flag a stale read or torn swap.
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  StreamEngine engine(tiny_stream_config(), scenario.whois);
  const VerdictService service(engine.slot());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> last_seq{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto answer = service.lookup("c0-s0.biz");
        if (answer.snapshot_available) {
          // Sequences are published in order; a reader may see an older
          // snapshot than another reader but never sequence 0.
          EXPECT_GE(answer.snapshot_sequence, 1u);
          last_seq.store(answer.snapshot_sequence, std::memory_order_relaxed);
        }
      }
    });
  }

  synth::feed(engine, scenario);
  engine.finish();
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(service.stats().queries, 0u);
  EXPECT_LE(last_seq.load(), engine.snapshots_published());
}

TEST(StreamEngine, SnapshotAgeGrowsMonotonicallyWhileMinerStalled) {
  // Regression: snapshot age must be computed at read time from the
  // publish timestamp, not cached at publish — a stalled miner then shows
  // up as ever-growing age (what the serve layer's staleness SLO and any
  // alert on stream.snapshot_age_ms key off), never a frozen "fresh" one.
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  StreamConfig config = tiny_stream_config();
  config.async_mining = true;
  std::atomic<int> mines{0};
  std::atomic<bool> release{false};
  config.mine_test_hook = [&] {
    // First mine publishes normally; every later one stalls until
    // released, simulating a miner that has fallen far behind.
    if (mines.fetch_add(1) == 0) return;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StreamEngine engine(config, scenario.whois);
  const VerdictService service(engine.slot());

  // Feed everything: publication #1 lands, then the next mine stalls.
  synth::feed(engine, scenario);
  while (engine.snapshots_published() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto gauge_age_ms = [&] {
    const auto snapshot = engine.metrics()->snapshot();
    const auto* gauge = snapshot.gauge("stream.snapshot_age_ms");
    EXPECT_NE(gauge, nullptr);
    return gauge ? gauge->value : 0.0;
  };

  // While the miner is stalled, every read shows the same (first)
  // snapshot but a strictly growing age — on the per-lookup answer and on
  // the exported gauge alike.
  // (The first publication's sequence may exceed 1 when early closes
  // coalesced into it; what matters is that it does not advance while the
  // miner is stalled.)
  const auto first = service.lookup("site3.org");
  ASSERT_TRUE(first.snapshot_available);
  ASSERT_GE(first.snapshot_age_s, 0.0);
  const double first_gauge = gauge_age_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto later = service.lookup("site3.org");
  EXPECT_EQ(later.snapshot_sequence, first.snapshot_sequence)
      << "miner is stalled";
  EXPECT_GT(later.snapshot_age_s, first.snapshot_age_s);
  EXPECT_GE(later.snapshot_age_s - first.snapshot_age_s, 0.015)
      << "age must track the stalled wall-clock time";
  EXPECT_GT(gauge_age_ms(), first_gauge);

  // Released, the engine drains and the age restarts from the fresh
  // publication.
  release.store(true);
  engine.finish();
  const auto fresh = service.lookup("site3.org");
  EXPECT_GT(fresh.snapshot_sequence, first.snapshot_sequence);
  EXPECT_LT(fresh.snapshot_age_s, later.snapshot_age_s);
}

TEST(StreamSnapshot, SurfacesPostingsBudgetOverflow) {
  const auto scenario = synth::generate_stream(tiny_scenario_config());

  // A postings cap small enough that the benign client join overflows it.
  StreamConfig strangled = tiny_stream_config();
  strangled.smash.join_postings_cap = 2;
  strangled.smash.file_postings_cap = 2;
  StreamEngine engine(strangled, scenario.whois);
  synth::feed(engine, scenario);
  engine.finish();

  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->postings_budget_exceeded());

  // With the default (inert) caps the same window reports a clean budget,
  // and the stats agree with the per-dimension JoinStats.
  StreamEngine healthy(tiny_stream_config(), scenario.whois);
  synth::feed(healthy, scenario);
  healthy.finish();
  ASSERT_NE(healthy.snapshot(), nullptr);
  EXPECT_FALSE(healthy.snapshot()->postings_budget_exceeded());
}

TEST(StreamSnapshot, SurfacesJoinMemoryPressure) {
  const auto scenario = synth::generate_stream(tiny_scenario_config());

  StreamEngine unbounded(tiny_stream_config(), scenario.whois);
  synth::feed(unbounded, scenario);
  unbounded.finish();
  const auto baseline = unbounded.snapshot();
  ASSERT_NE(baseline, nullptr);
  // One pass per dimension join when the budget is unbounded.
  EXPECT_EQ(baseline->join_shard_passes(),
            static_cast<std::size_t>(core::kNumDimensions));
  EXPECT_GT(baseline->peak_resident_postings_bytes(), 0u);

  // A budget below the window's postings footprint forces multi-pass
  // joins; verdicts must be unchanged and the pressure observable.
  StreamConfig squeezed = tiny_stream_config();
  squeezed.smash.join_memory_budget_bytes = 512;
  StreamEngine engine(squeezed, scenario.whois);
  synth::feed(engine, scenario);
  engine.finish();
  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GT(snapshot->join_shard_passes(), baseline->join_shard_passes());
  EXPECT_LE(snapshot->peak_resident_postings_bytes(), 512u);
  EXPECT_FALSE(snapshot->postings_budget_exceeded());
  ASSERT_EQ(snapshot->campaigns().size(), baseline->campaigns().size());
  for (std::size_t c = 0; c < snapshot->campaigns().size(); ++c) {
    EXPECT_EQ(snapshot->campaigns()[c].servers,
              baseline->campaigns()[c].servers);
  }
}

TEST(StreamEngine, MultiEpochGapsAreAccountedInSequences) {
  // One ingest step closes epochs 0..2 at once; the single publication must
  // account for all three closes (sequence jump + record.epochs_closed), so
  // skipped intermediate windows are visible, never silent.
  const whois::Registry registry;
  StreamEngine engine(small_config(/*epoch_s=*/100, /*window=*/10), registry);
  engine.ingest(req(10, "c1", "a.com"));
  engine.ingest(req(310, "c1", "a.com"));  // closes epochs 0, 1, 2
  EXPECT_EQ(engine.epochs_closed_total(), 3u);
  EXPECT_EQ(engine.snapshots_published(), 1u);
  auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->sequence(), 3u);
  auto records = engine.close_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epochs_closed, 3u);

  engine.finish();  // closes epoch 3: second publication, sequence 4
  snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->sequence(), 4u);
  records = engine.close_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].epochs_closed, 1u);
}

// Parameter: StreamConfig::async_mining.
class StreamMiningFailure : public ::testing::TestWithParam<bool> {};

TEST_P(StreamMiningFailure, SurfacesOnWriterThreadAndEngineRecovers) {
  // An exception escaping a mine must not wedge the engine (stuck
  // mine_in_flight_ would deadlock finish()/~StreamEngine) or vanish
  // silently: it surfaces on the writer thread — from the closing ingest()
  // in sync mode, from wait_for_mining() in async mode — and later closes
  // mine again, with every close still accounted.
  const bool async = GetParam();
  const whois::Registry registry;
  StreamConfig config = small_config(/*epoch_s=*/100, /*window=*/4);
  config.async_mining = async;
  std::atomic<int> mines{0};
  config.mine_test_hook = [&mines] {
    if (mines.fetch_add(1) == 0) throw std::runtime_error("injected fault");
  };
  StreamEngine engine(config, registry);
  engine.ingest(req(10, "c1", "a.com"));
  if (async) {
    engine.ingest(req(110, "c1", "a.com"));  // closes epoch 0: the failing mine
    EXPECT_THROW(engine.wait_for_mining(), std::runtime_error);
  } else {
    EXPECT_THROW(engine.ingest(req(110, "c1", "a.com")), std::runtime_error);
  }
  EXPECT_EQ(engine.snapshots_published(), 0u);

  engine.ingest(req(210, "c1", "a.com"));  // closes epoch 1: mines again
  engine.finish();                         // closes epoch 2, drains cleanly
  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(engine.epochs_closed_total(), 3u);
  EXPECT_EQ(snapshot->sequence(), 3u);
  // The close whose mine failed is accounted by the next publication.
  std::uint64_t accounted = 0;
  for (const auto& record : engine.close_records()) {
    accounted += record.epochs_closed;
  }
  EXPECT_EQ(accounted, engine.epochs_closed_total());
}

INSTANTIATE_TEST_SUITE_P(Modes, StreamMiningFailure, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "async" : "sync";
                         });

TEST(StreamSnapshot, TornPublishLeavesPreviousSnapshotReadable) {
  // An exception escaping DetectionSnapshot::build mid-assembly must leave
  // the previously published snapshot installed — readers never observe a
  // half-built window — and the engine keeps mining subsequent closes.
  const whois::Registry registry;
  StreamConfig config = small_config(/*epoch_s=*/100, /*window=*/3);
  std::atomic<bool> tear{false};
  config.snapshot_test_hook = [&tear] {
    if (tear.load()) throw std::runtime_error("injected torn publish");
  };
  StreamEngine engine(config, registry);
  engine.ingest(req(10, "c1", "a.com"));
  engine.ingest(req(110, "c1", "a.com"));  // closes epoch 0: publishes #1
  const auto first = engine.snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->sequence(), 1u);

  tear.store(true);
  EXPECT_THROW(engine.ingest(req(210, "c2", "a.com")), std::runtime_error);
  EXPECT_EQ(engine.snapshot(), first);  // same object, not a torn successor
  EXPECT_EQ(engine.snapshots_published(), 1u);

  tear.store(false);
  engine.ingest(req(310, "c1", "a.com"));  // closes epoch 2: mines again
  engine.finish();                         // closes epoch 3
  const auto final_snap = engine.snapshot();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->sequence(), 4u);
  EXPECT_EQ(engine.epochs_closed_total(), 4u);

  // The aborted build had no side effects: an engine that never tore
  // lands on the same final window.
  StreamConfig plain = small_config(/*epoch_s=*/100, /*window=*/3);
  StreamEngine reference(plain, registry);
  reference.ingest(req(10, "c1", "a.com"));
  reference.ingest(req(110, "c1", "a.com"));
  reference.ingest(req(210, "c2", "a.com"));
  reference.ingest(req(310, "c1", "a.com"));
  reference.finish();
  const auto reference_snap = reference.snapshot();
  ASSERT_NE(reference_snap, nullptr);
  EXPECT_EQ(final_snap->digest(), reference_snap->digest());
}

TEST(AsyncStreamMining, TornPublishOnMiningThreadKeepsOldSnapshot) {
  // Same torn-publish guarantee when the build runs on the mining thread:
  // the old snapshot stays installed, the error surfaces on the writer
  // thread via wait_for_mining(), and later closes publish normally.
  const whois::Registry registry;
  StreamConfig config = small_config(/*epoch_s=*/100, /*window=*/3);
  config.async_mining = true;
  std::atomic<bool> tear{false};
  config.snapshot_test_hook = [&tear] {
    if (tear.load()) throw std::runtime_error("injected torn publish");
  };
  StreamEngine engine(config, registry);
  engine.ingest(req(10, "c1", "a.com"));
  engine.ingest(req(110, "c1", "a.com"));  // closes epoch 0
  engine.wait_for_mining();
  const auto first = engine.snapshot();
  ASSERT_NE(first, nullptr);

  tear.store(true);
  engine.ingest(req(210, "c2", "a.com"));  // closes epoch 1: build tears
  EXPECT_THROW(engine.wait_for_mining(), std::runtime_error);
  EXPECT_EQ(engine.snapshot(), first);
  EXPECT_EQ(engine.snapshots_published(), 1u);

  tear.store(false);
  engine.ingest(req(310, "c1", "a.com"));  // closes epoch 2
  engine.finish();                         // closes epoch 3, drains
  const auto final_snap = engine.snapshot();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_NE(final_snap, first);
  EXPECT_EQ(final_snap->sequence(), 4u);
  EXPECT_EQ(engine.epochs_closed_total(), 4u);
}

TEST(StreamSnapshot, SurfacesLateEventLoss) {
  // Late events are invisible in the verdict maps; the snapshot must carry
  // the ingest counters so the data loss is observable by readers.
  const whois::Registry registry;
  StreamEngine dropping(small_config(/*epoch_s=*/100, /*window=*/4), registry);
  dropping.ingest(req(250, "c1", "a.com"));    // opens epoch 2
  dropping.ingest(req(10, "c2", "late.com"));  // late: dropped
  dropping.ingest(req(20, "c3", "late.com"));  // late: dropped
  dropping.finish();
  auto snapshot = dropping.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->late_dropped(), 2u);
  EXPECT_EQ(snapshot->late_folded(), 0u);
  EXPECT_EQ(snapshot->ingest_stats().requests, 1u);

  StreamConfig folding = small_config(/*epoch_s=*/100, /*window=*/4);
  folding.drop_late_events = false;
  StreamEngine folder(folding, registry);
  folder.ingest(req(250, "c1", "a.com"));
  folder.ingest(req(10, "c2", "late.com"));  // late: folded into epoch 2
  folder.finish();
  snapshot = folder.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->late_dropped(), 0u);
  EXPECT_EQ(snapshot->late_folded(), 1u);
  EXPECT_EQ(snapshot->ingest_stats().requests, 2u);
}

// Builds a sealed one-epoch shard with `n` requests to x.com.
std::shared_ptr<const EpochShard> shard_with_requests(int n) {
  StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/4));
  for (int i = 0; i < n; ++i) {
    ingestor.ingest(req(10 + i, test::numbered("c", i), "x.com"));
  }
  ingestor.close_epoch();
  return ingestor.window().back();
}

TEST(WindowAggregatesDeathTest, RemoveEpochUnderflowAborts) {
  const auto small = shard_with_requests(1);
  const auto big = shard_with_requests(3);

  WindowAggregates aggregates;
  aggregates.add_epoch(*small);
  // Evicting a delta larger than the accumulated value would underflow the
  // per-2LD counters; the guard must abort instead of serving garbage.
  EXPECT_DEATH(aggregates.remove_epoch(*big), "underflow");
  // Evicting a shard whose 2LD was never added is the same corruption.
  WindowAggregates empty;
  EXPECT_DEATH(empty.remove_epoch(*small), "underflow");

  // The in-bounds path drains the entry and erases it entirely.
  aggregates.remove_epoch(*small);
  EXPECT_EQ(aggregates.find("x.com"), nullptr);
  EXPECT_EQ(aggregates.num_servers(), 0u);
  EXPECT_EQ(aggregates.window_requests(), 0u);
}

TEST(StreamSnapshot, JoinStatsFlowIntoSmashResult) {
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  const net::Trace trace =
      synth::batch_trace(scenario, 0, scenario.duration_s);

  core::SmashConfig config;
  config.idf_threshold = 50;
  const auto result = core::SmashPipeline(config).run(trace, scenario.whois);
  // The client join indexed something and skipped nothing at default caps.
  const auto& client_stats =
      result.dims[static_cast<int>(core::Dimension::kClient)].join_stats;
  EXPECT_GT(client_stats.num_keys, 0u);
  EXPECT_GT(client_stats.postings_entries, 0u);
  EXPECT_EQ(client_stats.skipped_keys, 0u);
  EXPECT_FALSE(result.postings_budget_exceeded());

  core::SmashConfig tiny_cap = config;
  tiny_cap.join_postings_cap = 2;
  tiny_cap.file_postings_cap = 2;
  const auto capped = core::SmashPipeline(tiny_cap).run(trace, scenario.whois);
  EXPECT_TRUE(capped.postings_budget_exceeded());
  EXPECT_GT(capped.dims[static_cast<int>(core::Dimension::kClient)]
                .join_stats.skipped_keys,
            0u);
}

}  // namespace
}  // namespace smash::stream
