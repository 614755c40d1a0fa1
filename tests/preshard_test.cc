// Preprocessing reuse: merging the window's cached per-epoch preprocessed
// shards (core/preshard.h) must reproduce `preprocess(assembled_window)`
// EXACTLY — interner orders, profile contents, redirects, filter output —
// because the mining tail's byte-identical stream/batch equivalence rests
// on the merged state being indistinguishable from a fresh preprocess.
#include "core/preshard.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "core/preprocess.h"
#include "stream/ingest.h"
#include "synth/stream_gen.h"

namespace smash::core {
namespace {

stream::StreamConfig small_config(std::uint32_t epoch_s, std::uint32_t window,
                                  std::uint32_t idf = 50) {
  stream::StreamConfig config;
  config.epoch_seconds = epoch_s;
  config.window_epochs = window;
  config.smash.idf_threshold = idf;
  return config;
}

void feed_ingestor(stream::StreamIngestor& ingestor,
                   const std::vector<synth::StreamEvent>& events) {
  for (const auto& event : events) {
    std::visit([&ingestor](const auto& e) { ingestor.ingest(e); }, event);
  }
}

std::vector<ShardPreRef> window_refs(const stream::StreamIngestor& ingestor) {
  std::vector<ShardPreRef> refs;
  refs.reserve(ingestor.window().size());
  for (const auto& shard : ingestor.window()) {
    refs.push_back({&shard->trace(), &shard->pre()});
  }
  return refs;
}

void expect_identical_profiles(const ServerProfile& a, const ServerProfile& b,
                               const std::string& host) {
  EXPECT_EQ(a.clients, b.clients) << host;
  EXPECT_EQ(a.ips, b.ips) << host;
  EXPECT_EQ(a.days, b.days) << host;
  EXPECT_EQ(a.files, b.files) << host;
  EXPECT_EQ(a.user_agents, b.user_agents) << host;
  EXPECT_EQ(a.param_patterns, b.param_patterns) << host;
  EXPECT_EQ(a.referrer_counts, b.referrer_counts) << host;
  EXPECT_EQ(a.requests, b.requests) << host;
  EXPECT_EQ(a.error_requests, b.error_requests) << host;
}

// Deep equality of the merged window preprocess against the batch path
// over the assembled window trace.
void expect_merge_matches_batch(const stream::StreamIngestor& ingestor,
                                const SmashConfig& config) {
  const WindowPre merged = merge_shard_pres(window_refs(ingestor), config);
  const net::Trace window = ingestor.assemble_window();
  const PreprocessResult batch = preprocess(window, config);

  // Window IP interner: ids in profile `ips` sets resolve to the same
  // names in the same order as the assembled trace's interner.
  EXPECT_EQ(merged.ips.names(), window.ips().names());

  // Aggregation: identical 2LD interner order, file interner order,
  // profiles, redirects, and pre-aggregation server count.
  const AggregatedTrace& a = merged.pre.agg;
  const AggregatedTrace& b = batch.agg;
  ASSERT_EQ(a.servers().names(), b.servers().names());
  EXPECT_EQ(a.agg_of(), b.agg_of());
  EXPECT_EQ(a.files().names(), b.files().names());
  EXPECT_EQ(a.redirects(), b.redirects());
  EXPECT_EQ(a.num_servers_before_aggregation(),
            b.num_servers_before_aggregation());
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  for (std::size_t s = 0; s < a.profiles().size(); ++s) {
    expect_identical_profiles(a.profiles()[s], b.profiles()[s],
                              a.server_name(static_cast<std::uint32_t>(s)));
  }

  // Filter output and reporting stats.
  EXPECT_EQ(merged.pre.kept, batch.kept);
  EXPECT_EQ(merged.pre.kept_index_of, batch.kept_index_of);
  EXPECT_EQ(merged.pre.total_requests, batch.total_requests);
  EXPECT_EQ(merged.pre.requests_after_filter, batch.requests_after_filter);
  EXPECT_EQ(merged.pre.servers_before_aggregation,
            batch.servers_before_aggregation);
  EXPECT_EQ(merged.pre.servers_after_aggregation,
            batch.servers_after_aggregation);
  EXPECT_EQ(merged.pre.servers_after_filter, batch.servers_after_filter);
}

stream::RequestEvent req(std::uint64_t time_s, std::string client,
                         std::string host, std::string path,
                         std::uint16_t status = 200,
                         std::string referrer = "") {
  stream::RequestEvent e;
  e.time_s = time_s;
  e.client = std::move(client);
  e.host = std::move(host);
  e.path = std::move(path);
  e.user_agent = "UA";
  e.referrer = std::move(referrer);
  e.status = status;
  return e;
}

TEST(PreshardMerge, EdgeCaseStreamMatchesBatchExactly) {
  // Hand-built stream covering what the synth scenarios do not: referrers
  // (both to window servers and referrer-only hosts), cross- and same-2LD
  // redirects with cross-epoch overwrites, error statuses, empty epochs,
  // empty-path files, and 2LDs recurring across epochs under different
  // subdomains. Referrer-only 2LDs take window ids after every server 2LD,
  // so the inputs also cover a referrer that becomes a requested server
  // only in a later epoch and a referrer-only 2LD seen in two epochs.
  stream::StreamIngestor ingestor(small_config(/*epoch_s=*/100, /*window=*/6));

  // Epoch 0: basic traffic + referrer to a host never requested.
  ingestor.ingest(req(10, "c1", "a.com", "/x.html"));
  ingestor.ingest(req(20, "c2", "www.a.com", "/x.html", 404));
  ingestor.ingest(req(30, "c1", "b.com", "/", 200, "news.portal.example"));
  ingestor.ingest(req(35, "c2", "a.com", "/y.html", 200, "later.org"));
  ingestor.ingest(req(36, "c2", "b.com", "/y.html", 200, "search.twice.io"));
  ingestor.ingest(stream::ResolutionEvent{40, "a.com", "1.1.1.1"});
  ingestor.ingest(stream::RedirectEvent{50, "b.com", "a.com"});

  // Epoch 1: empty (gap).
  // Epoch 2: same 2LDs again via other subdomains, same-2LD redirect (must
  // be skipped, not erased), params, referrer naming a window server.
  ingestor.ingest(req(210, "c3", "cdn.a.com", "/gate.php?id=7&x=1"));
  ingestor.ingest(req(220, "c2", "b.com", "/x.html", 500, "a.com"));
  ingestor.ingest(req(225, "c3", "b.com", "/", 200, "www.twice.io"));
  ingestor.ingest(stream::RedirectEvent{230, "www.b.com", "b.com"});
  ingestor.ingest(stream::ResolutionEvent{240, "a.com", "2.2.2.2"});
  ingestor.ingest(stream::ResolutionEvent{250, "c.com", "3.3.3.3"});  // no requests

  // Epoch 3: redirect overwrite (b.com now points elsewhere), new server,
  // and epoch 0's referrer later.org requested for the first time.
  ingestor.ingest(req(310, "c1", "d.net", "/x.html"));
  ingestor.ingest(req(315, "c4", "www.later.org", "/z.html", 200, "twice.io"));
  ingestor.ingest(stream::RedirectEvent{320, "b.com", "d.net"});
  ingestor.close_epoch();  // seal epoch 3

  expect_merge_matches_batch(ingestor, small_config(100, 6).smash);
}

TEST(PreshardMerge, ScenarioWindowsMatchBatchFullAndSlid) {
  synth::StreamScenarioConfig scenario_cfg;
  scenario_cfg.seed = 23;
  scenario_cfg.duration_s = 8 * 600;
  scenario_cfg.benign_servers = 70;
  scenario_cfg.benign_clients = 50;
  scenario_cfg.benign_visits = 700;
  scenario_cfg.popular_servers = 2;
  scenario_cfg.popular_clients = 70;
  scenario_cfg.campaigns = 2;
  scenario_cfg.campaign_servers = 5;
  scenario_cfg.campaign_bots = 4;
  scenario_cfg.poll_interval_s = 120;
  scenario_cfg.active_fraction = 0.35;
  const auto scenario = synth::generate_stream(scenario_cfg);

  // Full-stream window (8 epochs of data in a window of 8) and a slid
  // window (5) whose first epochs have been evicted.
  for (const std::uint32_t window_epochs : {8u, 5u}) {
    stream::StreamIngestor ingestor(small_config(600, window_epochs));
    feed_ingestor(ingestor, scenario.events);
    ingestor.close_epoch();
    expect_merge_matches_batch(ingestor, small_config(600, window_epochs).smash);
  }

  // And the mined tail agrees end to end: run_preprocessed over the merge
  // produces the same campaigns as a fresh run over the assembled window.
  stream::StreamIngestor ingestor(small_config(600, 5));
  feed_ingestor(ingestor, scenario.events);
  ingestor.close_epoch();
  WindowPre merged = merge_shard_pres(window_refs(ingestor),
                                      small_config(600, 5).smash);
  const net::Trace window = ingestor.assemble_window();
  const SmashPipeline pipeline(small_config(600, 5).smash);
  const SmashResult from_merge =
      pipeline.run_preprocessed(std::move(merged.pre), scenario.whois);
  const SmashResult from_trace = pipeline.run(window, scenario.whois);
  EXPECT_EQ(from_merge.pre.kept, from_trace.pre.kept);
  ASSERT_EQ(from_merge.campaigns.size(), from_trace.campaigns.size());
  EXPECT_FALSE(from_trace.campaigns.empty());
  for (std::size_t c = 0; c < from_merge.campaigns.size(); ++c) {
    EXPECT_EQ(from_merge.campaigns[c].servers, from_trace.campaigns[c].servers);
    EXPECT_EQ(from_merge.campaigns[c].involved_clients,
              from_trace.campaigns[c].involved_clients);
  }
}

// The interner-range-parallel delta merge must be byte-identical to the
// serial one for any thread count — each comparison runs against the batch
// preprocess, which is thread-free, so any divergence in the parallel
// range walk (ordering, partitioning, normalization) fails the deep
// equality.
TEST(PreshardMerge, ParallelMergeMatchesSerialAcrossThreadCounts) {
  synth::StreamScenarioConfig scenario_cfg;
  scenario_cfg.seed = 31;
  scenario_cfg.duration_s = 6 * 600;
  scenario_cfg.benign_servers = 60;
  scenario_cfg.benign_clients = 40;
  scenario_cfg.benign_visits = 500;
  scenario_cfg.campaigns = 2;
  scenario_cfg.campaign_servers = 4;
  scenario_cfg.campaign_bots = 3;
  scenario_cfg.poll_interval_s = 120;
  const auto scenario = synth::generate_stream(scenario_cfg);

  stream::StreamIngestor ingestor(small_config(600, 6));
  feed_ingestor(ingestor, scenario.events);
  ingestor.close_epoch();

  SmashConfig serial_cfg = small_config(600, 6).smash;
  serial_cfg.num_threads = 1;
  const WindowPre serial = merge_shard_pres(window_refs(ingestor), serial_cfg);

  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    SmashConfig threaded_cfg = serial_cfg;
    threaded_cfg.num_threads = threads;
    // Full deep equality against the thread-free batch path...
    expect_merge_matches_batch(ingestor, threaded_cfg);
    // ...and profile-for-profile equality against the serial merge.
    const WindowPre threaded =
        merge_shard_pres(window_refs(ingestor), threaded_cfg);
    EXPECT_EQ(threaded.ips.names(), serial.ips.names());
    ASSERT_EQ(threaded.pre.agg.profiles().size(),
              serial.pre.agg.profiles().size());
    for (std::size_t s = 0; s < serial.pre.agg.profiles().size(); ++s) {
      expect_identical_profiles(
          threaded.pre.agg.profiles()[s], serial.pre.agg.profiles()[s],
          serial.pre.agg.server_name(static_cast<std::uint32_t>(s)));
    }
    EXPECT_EQ(threaded.pre.kept, serial.pre.kept);
  }
}

}  // namespace
}  // namespace smash::core
