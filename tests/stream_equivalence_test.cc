// Stream/batch equivalence: a StreamEngine fed N epochs one at a time must
// produce byte-identical campaigns to one batch SmashPipeline::run over the
// concatenated window — for 1 and 4 mining threads, for a full-stream
// window and for a slid (evicting) window. Plus the detection-latency
// guarantee: a campaign activating mid-stream is flagged within one epoch
// of activation, and unflagged once the window slides past it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "stream/engine.h"
#include "stream/verdict.h"
#include "synth/stream_gen.h"

namespace smash::stream {
namespace {

synth::StreamScenarioConfig scenario_config() {
  synth::StreamScenarioConfig config;
  config.seed = 23;
  config.duration_s = 8 * 600;
  config.benign_servers = 70;
  config.benign_clients = 50;
  config.benign_visits = 700;
  config.popular_servers = 2;
  config.popular_clients = 70;
  config.campaigns = 2;
  config.campaign_servers = 5;
  config.campaign_bots = 4;
  config.poll_interval_s = 120;
  config.active_fraction = 0.35;
  return config;
}

StreamConfig stream_config(unsigned threads, std::uint32_t window_epochs) {
  StreamConfig config;
  config.epoch_seconds = 600;
  config.window_epochs = window_epochs;
  config.smash.idf_threshold = 50;
  config.smash.num_threads = threads;
  return config;
}

void expect_identical_campaigns(const core::SmashResult& a,
                                const core::SmashResult& b) {
  EXPECT_EQ(a.pre.kept, b.pre.kept);
  ASSERT_EQ(a.campaigns.size(), b.campaigns.size());
  for (std::size_t c = 0; c < a.campaigns.size(); ++c) {
    EXPECT_EQ(a.campaigns[c].servers, b.campaigns[c].servers);
    EXPECT_EQ(a.campaigns[c].involved_clients, b.campaigns[c].involved_clients);
  }
}

void expect_snapshot_matches_result(const DetectionSnapshot& snapshot,
                                    const core::SmashResult& result) {
  ASSERT_EQ(snapshot.campaigns().size(), result.campaigns.size());
  for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
    const auto& mined = result.campaigns[c];
    const auto& served = snapshot.campaigns()[c];
    ASSERT_EQ(served.servers.size(), mined.servers.size());
    for (std::size_t s = 0; s < mined.servers.size(); ++s) {
      EXPECT_EQ(served.servers[s], result.server_name(mined.servers[s]));
    }
    EXPECT_EQ(served.involved_clients, mined.involved_clients.size());
    EXPECT_EQ(served.single_client, mined.single_client());
  }
}

class StreamBatchEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamBatchEquivalence, FullStreamWindow) {
  const unsigned threads = GetParam();
  const auto scenario = synth::generate_stream(scenario_config());

  // Window covers the whole stream: 8 epochs of data, window of 8.
  const StreamConfig config = stream_config(threads, 8);
  StreamEngine engine(config, scenario.whois);
  synth::feed(engine, scenario);
  engine.finish();

  // The assembled window replays shard journals in arrival order, so it
  // must be request-for-request identical to the batch-built trace.
  const net::Trace window = engine.assemble_window();
  const net::Trace batch =
      synth::batch_trace(scenario, 0, scenario.duration_s);
  ASSERT_EQ(window.num_requests(), batch.num_requests());
  ASSERT_EQ(window.num_servers(), batch.num_servers());
  for (std::size_t i = 0; i < batch.requests().size(); ++i) {
    const auto& w = window.requests()[i];
    const auto& b = batch.requests()[i];
    ASSERT_EQ(w.client, b.client) << "request " << i;
    ASSERT_EQ(w.server, b.server) << "request " << i;
    ASSERT_EQ(w.path, b.path) << "request " << i;
    ASSERT_EQ(w.day, b.day) << "request " << i;
  }

  // And the mined output is byte-identical.
  const core::SmashPipeline pipeline(config.smash);
  const auto stream_result = pipeline.run(window, scenario.whois);
  const auto batch_result = pipeline.run(batch, scenario.whois);
  expect_identical_campaigns(stream_result, batch_result);
  EXPECT_FALSE(batch_result.campaigns.empty());

  // The published snapshot serves exactly the batch campaigns.
  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  expect_snapshot_matches_result(*snapshot, batch_result);
}

TEST_P(StreamBatchEquivalence, SlidWindowAfterEviction) {
  const unsigned threads = GetParam();
  const auto scenario = synth::generate_stream(scenario_config());

  // Window of 5 epochs over an 8-epoch stream: the first epochs have been
  // evicted by the time the stream ends.
  const StreamConfig config = stream_config(threads, 5);
  StreamEngine engine(config, scenario.whois);
  synth::feed(engine, scenario);
  engine.finish();

  ASSERT_EQ(engine.ingestor().window().size(), 5u);
  const std::uint64_t window_begin_s =
      engine.ingestor().window().front()->id() * config.epoch_seconds;

  const net::Trace window = engine.assemble_window();
  const net::Trace batch =
      synth::batch_trace(scenario, window_begin_s, scenario.duration_s);
  ASSERT_EQ(window.num_requests(), batch.num_requests());

  const core::SmashPipeline pipeline(config.smash);
  expect_identical_campaigns(pipeline.run(window, scenario.whois),
                             pipeline.run(batch, scenario.whois));
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamBatchEquivalence,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// Deep equality of two published snapshots: the verdict index a reader
// sees must be byte-identical, not merely campaign-count equal.
void expect_identical_snapshots(const DetectionSnapshot& a,
                                const DetectionSnapshot& b) {
  EXPECT_EQ(a.first_epoch(), b.first_epoch());
  EXPECT_EQ(a.last_epoch(), b.last_epoch());
  EXPECT_EQ(a.sequence(), b.sequence());
  EXPECT_EQ(a.window_requests(), b.window_requests());
  EXPECT_EQ(a.kept_servers(), b.kept_servers());
  EXPECT_EQ(a.num_malicious_servers(), b.num_malicious_servers());
  EXPECT_EQ(a.postings_budget_exceeded(), b.postings_budget_exceeded());
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

class AsyncStreamEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(AsyncStreamEquivalence, FinalSnapshotMatchesSyncEngine) {
  const unsigned threads = GetParam();
  const auto scenario = synth::generate_stream(scenario_config());

  const StreamConfig sync_config = stream_config(threads, 5);
  StreamEngine sync_engine(sync_config, scenario.whois);
  synth::feed(sync_engine, scenario);
  sync_engine.finish();

  StreamConfig async_config = sync_config;
  async_config.async_mining = true;
  StreamEngine async_engine(async_config, scenario.whois);
  synth::feed(async_engine, scenario);
  async_engine.finish();  // drains the mining thread

  // finish() accounted every close, so the final async snapshot mines the
  // same window with the same sequence as the synchronous engine — and the
  // verdict index must be byte-identical, whether or not intermediate
  // windows were coalesced along the way.
  EXPECT_EQ(async_engine.epochs_closed_total(),
            sync_engine.epochs_closed_total());
  const auto sync_snapshot = sync_engine.snapshot();
  const auto async_snapshot = async_engine.snapshot();
  ASSERT_NE(sync_snapshot, nullptr);
  ASSERT_NE(async_snapshot, nullptr);
  expect_identical_snapshots(*async_snapshot, *sync_snapshot);
  EXPECT_FALSE(sync_snapshot->campaigns().empty());

  // Publications never exceed closes, and every close is accounted.
  EXPECT_LE(async_engine.snapshots_published(),
            async_engine.epochs_closed_total());
  std::uint64_t accounted = 0;
  for (const auto& record : async_engine.close_records()) {
    accounted += record.epochs_closed;
  }
  EXPECT_EQ(accounted, async_engine.epochs_closed_total());
}

INSTANTIATE_TEST_SUITE_P(Threads, AsyncStreamEquivalence,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(AsyncStreamCoalescing, BurstOfClosesSkipsToNewestWindow) {
  auto scenario_cfg = scenario_config();
  scenario_cfg.duration_s = 12 * 600;  // 12 epochs of data
  const auto scenario = synth::generate_stream(scenario_cfg);

  StreamConfig config = stream_config(/*threads=*/1, /*window=*/4);
  config.async_mining = true;
  // Throttle each mine well past the feed time of an epoch, so closes pile
  // up behind the in-flight mine and must coalesce.
  config.mine_throttle_ms = 150;
  StreamEngine engine(config, scenario.whois);
  synth::feed(engine, scenario);
  engine.finish();

  // The burst coalesced: strictly fewer publications than closes, at least
  // one pending job replaced by a newer window, and nothing unaccounted.
  EXPECT_EQ(engine.epochs_closed_total(), 12u);
  EXPECT_LT(engine.snapshots_published(), engine.epochs_closed_total());
  EXPECT_GE(engine.windows_coalesced(), 1u);

  const auto records = engine.close_records();
  ASSERT_EQ(records.size(), engine.snapshots_published());
  std::uint64_t accounted = 0;
  EpochId last_epoch = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    accounted += records[i].epochs_closed;
    if (i > 0) {
      EXPECT_GT(records[i].last_epoch, last_epoch);  // newest wins
    }
    last_epoch = records[i].last_epoch;
  }
  EXPECT_EQ(accounted, engine.epochs_closed_total());

  // The final snapshot is the newest window with a monotone sequence equal
  // to the total closes, identical to what a synchronous engine publishes.
  const auto snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->sequence(), engine.epochs_closed_total());
  EXPECT_EQ(snapshot->last_epoch(), 11u);

  StreamConfig sync_config = stream_config(/*threads=*/1, /*window=*/4);
  StreamEngine sync_engine(sync_config, scenario.whois);
  synth::feed(sync_engine, scenario);
  sync_engine.finish();
  const auto sync_snapshot = sync_engine.snapshot();
  ASSERT_NE(sync_snapshot, nullptr);
  expect_identical_snapshots(*snapshot, *sync_snapshot);
}

TEST(StreamDetectionLatency, CampaignFlaggedWithinOneEpochOfActivation) {
  auto scenario_cfg = scenario_config();
  scenario_cfg.campaigns = 1;
  scenario_cfg.duration_s = 10 * 600;
  scenario_cfg.active_fraction = 0.25;  // active epochs ~[3, 5]
  const auto scenario = synth::generate_stream(scenario_cfg);
  const auto& truth = scenario.campaigns[0];

  const StreamConfig config = stream_config(/*threads=*/1, /*window=*/3);
  StreamEngine engine(config, scenario.whois);
  const VerdictService service(engine.slot());

  const EpochId activation_epoch = truth.start_s / config.epoch_seconds;
  const EpochId end_epoch = (truth.end_s - 1) / config.epoch_seconds;

  // Drive the stream event by event; after every snapshot publication,
  // probe the campaign's first server.
  std::uint64_t seen_publications = 0;
  EpochId first_flagged = 0, last_flagged = 0;
  bool flagged_before_activation = false, ever_flagged = false;
  for (const auto& event : scenario.events) {
    synth::ingest_event(engine, event);
    if (engine.snapshots_published() == seen_publications) continue;
    seen_publications = engine.snapshots_published();
    const auto snapshot = engine.snapshot();
    ASSERT_NE(snapshot, nullptr);
    if (service.lookup(truth.servers[0]).malicious) {
      if (!ever_flagged) first_flagged = snapshot->last_epoch();
      ever_flagged = true;
      last_flagged = snapshot->last_epoch();
      if (snapshot->last_epoch() + 1 <= activation_epoch) {
        flagged_before_activation = true;
      }
    }
  }
  engine.finish();

  ASSERT_TRUE(ever_flagged);
  EXPECT_FALSE(flagged_before_activation);
  // Detected in the snapshot closing the activation epoch, or one later.
  EXPECT_LE(first_flagged, activation_epoch + 1);

  // Once the window slides fully past the campaign, the verdict clears.
  const auto final_snapshot = engine.snapshot();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_GT(final_snapshot->first_epoch(), end_epoch);
  for (const auto& host : truth.servers) {
    EXPECT_FALSE(service.lookup(host).malicious) << host;
  }
  EXPECT_GE(last_flagged, end_epoch);
}

}  // namespace
}  // namespace smash::stream
