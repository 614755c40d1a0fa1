// Socket-level tests for VerdictServer: real TCP connections against a
// live server fronting a StreamEngine's snapshot slot. Covers single and
// batched lookups, the staleness SLO, deterministic shedding (kRejected +
// partial batches) via the sndbuf test hook, the connection cap, framing
// violations, and the serve.* metrics surface.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "stream/engine.h"
#include "stream_fuzz_helpers.h"
#include "synth/stream_gen.h"
#include "util/binary.h"

namespace smash::serve {
namespace {

using namespace std::chrono_literals;
using test::tiny_scenario_config;

stream::StreamConfig tiny_stream_config() {
  stream::StreamConfig config;
  config.epoch_seconds = 600;
  config.window_epochs = 6;
  config.smash.idf_threshold = 50;
  return config;
}

// A fed engine with at least one published snapshot, plus its scenario
// ground truth.
struct Fixture {
  synth::StreamScenario scenario;
  std::unique_ptr<stream::StreamEngine> engine;

  Fixture() {
    scenario = synth::generate_stream(tiny_scenario_config());
    engine = std::make_unique<stream::StreamEngine>(tiny_stream_config(),
                                                    scenario.whois);
    synth::feed(*engine, scenario);
    engine->finish();
  }
};

RequestFrame lookup_of(std::uint64_t id, std::string host,
                       std::string server_ip = "") {
  RequestFrame request;
  request.type = FrameType::kLookup;
  request.request_id = id;
  LookupKey key;
  key.host = std::move(host);
  key.server_ip = std::move(server_ip);
  request.lookups.push_back(key);
  return request;
}

std::uint64_t counter_value(const obs::Registry& registry,
                            std::string_view name) {
  const auto snapshot = registry.snapshot();
  const auto* c = snapshot.counter(name);
  return c ? c->value : 0;
}

TEST(ServeServer, AnswersSingleAndBatchedLookups) {
  Fixture fx;
  ServeConfig config;
  VerdictServer server(fx.engine->slot(), std::move(config));
  ASSERT_GT(server.port(), 0) << "ephemeral port resolved";

  BlockingClient client("127.0.0.1", server.port());
  const auto& truth = fx.scenario.campaigns[0];

  // Single lookup: a campaign server is malicious, with campaign detail.
  auto response = client.call(lookup_of(1, truth.servers[0]));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->request_id, 1u);
  EXPECT_EQ(response->status, FrameStatus::kOk);
  EXPECT_GT(response->snapshot_sequence, 0u);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_TRUE(response->answers[0].malicious);
  EXPECT_EQ(response->answers[0].campaign_servers, truth.servers.size());
  EXPECT_GT(response->answers[0].window_requests, 0u);

  // Benign host stays clean.
  response = client.call(lookup_of(2, "site3.org"));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_FALSE(response->answers[0].malicious);

  // Batch: every campaign server plus a benign tail, answers positional.
  RequestFrame batch;
  batch.type = FrameType::kBatch;
  batch.request_id = 3;
  for (const auto& host : truth.servers) {
    LookupKey key;
    key.host = host;
    batch.lookups.push_back(key);
  }
  LookupKey benign;
  benign.host = "site4.org";
  batch.lookups.push_back(benign);
  response = client.call(batch);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->request_id, 3u);
  ASSERT_EQ(response->answers.size(), truth.servers.size() + 1);
  for (std::size_t i = 0; i < truth.servers.size(); ++i) {
    EXPECT_TRUE(response->answers[i].malicious) << truth.servers[i];
  }
  EXPECT_FALSE(response->answers.back().malicious);

  // Pipelining: several frames written back-to-back all get answered, in
  // order, on one connection.
  for (std::uint64_t id = 10; id < 15; ++id) {
    client.send(lookup_of(id, "site3.org"));
  }
  for (std::uint64_t id = 10; id < 15; ++id) {
    response = client.receive();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->request_id, id);
  }

  const auto& registry = *server.metrics();
  EXPECT_EQ(counter_value(registry, "serve.accepted_total"), 8u);
  EXPECT_EQ(counter_value(registry, "serve.responses_total"), 8u);
  EXPECT_EQ(counter_value(registry, "serve.rejected_total"), 0u);
  EXPECT_EQ(counter_value(registry, "serve.connections_opened_total"), 1u);
  const auto metrics_snapshot = registry.snapshot();
  const auto* request_ns = metrics_snapshot.histogram("serve.request_ns");
  ASSERT_NE(request_ns, nullptr);
  EXPECT_EQ(request_ns->count, 8u);
  // The embedded VerdictService shares the registry: 7 single lookups
  // plus the (campaign + 1)-entry batch.
  EXPECT_EQ(counter_value(registry, "verdict.lookups_total"),
            truth.servers.size() + 8);

  // The Prometheus text operators scrape carries the serving surface.
  const std::string prometheus = registry.render_prometheus();
  for (const char* name :
       {"smash_serve_accepted_total", "smash_serve_rejected_total",
        "smash_serve_request_ns_bucket"}) {
    EXPECT_NE(prometheus.find(name), std::string::npos) << name;
  }
}

TEST(ServeServer, NoSnapshotYetIsExplicitlyStale) {
  // A server over an engine that has never published: answers must carry
  // kStale, never a fresh-looking all-clear.
  const auto scenario = synth::generate_stream(tiny_scenario_config());
  stream::StreamEngine engine(tiny_stream_config(), scenario.whois);
  ServeConfig config;
  VerdictServer server(engine.slot(), std::move(config));

  BlockingClient client("127.0.0.1", server.port());
  const auto response = client.call(lookup_of(1, "anything.example"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, FrameStatus::kStale);
  EXPECT_EQ(response->snapshot_sequence, 0u);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_FALSE(response->answers[0].malicious);
  EXPECT_EQ(counter_value(*server.metrics(), "serve.stale_total"), 1u);
}

TEST(ServeServer, StalenessSloFlipsAnswersToStale) {
  Fixture fx;
  // The snapshot was built during Fixture construction, milliseconds ago
  // at minimum — a 10 microsecond SLO is already blown, deterministically.
  ServeConfig config;
  config.stale_after_ms = 0.01;
  VerdictServer server(fx.engine->slot(), std::move(config));

  BlockingClient client("127.0.0.1", server.port());
  const auto& truth = fx.scenario.campaigns[0];
  const auto response = client.call(lookup_of(1, truth.servers[0]));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, FrameStatus::kStale);
  // The verdicts are still carried — stale data beats no data, and the
  // caller decides.
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_TRUE(response->answers[0].malicious);
  EXPECT_GT(response->snapshot_sequence, 0u);
  EXPECT_EQ(counter_value(*server.metrics(), "serve.stale_total"), 1u);

  // A generous SLO on the same slot answers kOk, with a visible age (the
  // sleep guarantees at least one whole millisecond has passed since the
  // fixture's last publication).
  std::this_thread::sleep_for(2ms);
  ServeConfig fresh_config;
  fresh_config.stale_after_ms = 3600.0 * 1000.0;
  VerdictServer fresh(fx.engine->slot(), std::move(fresh_config));
  BlockingClient fresh_client("127.0.0.1", fresh.port());
  const auto ok = fresh_client.call(lookup_of(2, truth.servers[0]));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, FrameStatus::kOk);
  EXPECT_GT(ok->snapshot_age_ms, 0u);
}

TEST(ServeServer, ShedsExplicitlyWhenTheClientWontRead) {
  Fixture fx;
  ServeConfig config;
  // Tiny bounds so the un-read-response pile crosses the soft bound at
  // test scale: the kernel send buffer is forced small (test hook), and a
  // few hundred un-flushed bytes already count as overload.
  config.sndbuf_bytes = 4096;
  config.max_pending_response_bytes = 512;
  VerdictServer server(fx.engine->slot(), std::move(config));

  BlockingClient client("127.0.0.1", server.port());
  // Fire requests without reading a single response. Each response is
  // ~22 bytes of answer + header; the kernel buffer (~4-8 KiB effective)
  // plus the 512-byte soft bound fill well within a few thousand.
  constexpr std::uint64_t kRequests = 4000;
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    client.send(lookup_of(id, "site3.org"));
  }
  // Now drain everything; the server must have answered every admitted
  // request and explicitly rejected the shed ones — none silently lost
  // before the read-pause point, and once paused the remaining requests
  // sit in the socket until we drain.
  std::uint64_t ok = 0, rejected = 0;
  std::uint64_t received = 0;
  while (received < kRequests) {
    const auto response = client.receive();
    ASSERT_TRUE(response.has_value())
        << "connection died after " << received << " responses";
    if (response->status == FrameStatus::kRejected) {
      EXPECT_TRUE(response->answers.empty());
      ++rejected;
    } else {
      ++ok;
    }
    ++received;
  }
  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_GT(rejected, 0u) << "overload must shed explicitly";
  EXPECT_GT(ok, 0u) << "admitted requests still get answers";

  const auto& registry = *server.metrics();
  EXPECT_EQ(counter_value(registry, "serve.rejected_total"), rejected);
  EXPECT_EQ(counter_value(registry, "serve.accepted_total"), ok);
  EXPECT_EQ(counter_value(registry, "serve.responses_total"), kRequests);

  // After draining, the connection still works.
  const auto after = client.call(lookup_of(999999, "site3.org"));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, FrameStatus::kOk);
}

TEST(ServeServer, CutsBatchesShortAtTheBoundNotSilently) {
  Fixture fx;
  ServeConfig config;
  config.sndbuf_bytes = 4096;
  config.max_pending_response_bytes = 512;
  VerdictServer server(fx.engine->slot(), std::move(config));

  BlockingClient client("127.0.0.1", server.port());
  // Enough max-width batches, unread, that one lands while the pending
  // pile is between the soft bound and the mid-batch cutoff.
  RequestFrame batch;
  batch.type = FrameType::kBatch;
  for (int i = 0; i < 200; ++i) {
    LookupKey key;
    key.host = "site3.org";
    batch.lookups.push_back(key);
  }
  constexpr std::uint64_t kBatches = 64;
  for (std::uint64_t id = 0; id < kBatches; ++id) {
    batch.request_id = id;
    client.send(batch);
  }
  std::uint64_t full = 0, partial = 0, rejected = 0;
  for (std::uint64_t i = 0; i < kBatches; ++i) {
    const auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    if (response->status == FrameStatus::kRejected) {
      EXPECT_TRUE(response->answers.empty());
      ++rejected;
    } else if (response->answers.size() < batch.lookups.size()) {
      EXPECT_FALSE(response->answers.empty());
      ++partial;
    } else {
      ++full;
    }
  }
  EXPECT_EQ(full + partial + rejected, kBatches);
  EXPECT_GT(partial + rejected, 0u);
  EXPECT_EQ(counter_value(*server.metrics(), "serve.partial_batches_total"),
            partial);
}

TEST(ServeServer, ConnectionCapAcceptsAndClosesOverflow) {
  Fixture fx;
  ServeConfig config;
  config.max_connections = 2;
  VerdictServer server(fx.engine->slot(), std::move(config));

  BlockingClient first("127.0.0.1", server.port());
  BlockingClient second("127.0.0.1", server.port());
  ASSERT_TRUE(first.call(lookup_of(1, "site3.org")).has_value());
  ASSERT_TRUE(second.call(lookup_of(2, "site3.org")).has_value());

  // The third connects at the kernel level (backlog) but the server
  // accepts-and-closes it: the first receive sees EOF, never an answer.
  BlockingClient third("127.0.0.1", server.port());
  third.send(lookup_of(3, "site3.org"));
  EXPECT_FALSE(third.receive().has_value());
  EXPECT_EQ(
      counter_value(*server.metrics(), "serve.connections_rejected_total"),
      1u);

  // Closing a held connection frees a slot for a newcomer.
  first.close();
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      BlockingClient fourth("127.0.0.1", server.port());
      if (fourth.call(lookup_of(4, "site3.org")).has_value()) return;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(10ms);  // loop hasn't reaped `first` yet
  }
  FAIL() << "slot never freed after closing a connection";
}

TEST(ServeServer, FramingViolationsCloseTheConnection) {
  Fixture fx;
  ServeConfig config;
  VerdictServer server(fx.engine->slot(), std::move(config));

  // Oversized declared length: the server drops the connection rather
  // than resynchronize on garbage.
  {
    BlockingClient client("127.0.0.1", server.port());
    std::string hostile;
    util::put_u32(hostile, kMaxFramePayloadBytes + 1);
    client.send_raw(hostile);
    EXPECT_FALSE(client.receive().has_value());
  }
  // Well-framed but malformed payload: same fate.
  {
    BlockingClient client("127.0.0.1", server.port());
    std::string junk;
    util::put_u32(junk, 3);
    junk += "abc";
    client.send_raw(junk);
    EXPECT_FALSE(client.receive().has_value());
  }
  // The server survives both and keeps serving.
  BlockingClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.call(lookup_of(1, "site3.org")).has_value());
}

TEST(ServeServer, StopIsIdempotentAndUnblocksClients) {
  Fixture fx;
  ServeConfig config;
  VerdictServer server(fx.engine->slot(), std::move(config));
  BlockingClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.call(lookup_of(1, "site3.org")).has_value());

  server.stop();
  server.stop();  // idempotent

  // The connection is gone; a blocked reader sees EOF, not a hang.
  client.send(lookup_of(2, "site3.org"));
  EXPECT_FALSE(client.receive().has_value());
}

}  // namespace
}  // namespace smash::serve
