// Observability layer: registry exactness under concurrency, snapshot
// isolation, histogram bucket semantics, the Prometheus exporter (golden
// strings — exporter output is a contract for scrapers), the trace ring
// (wrap, concurrency, Chrome JSON), the metrics logger, and the
// StreamEngine/VerdictService integration.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/logger.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "stream/verdict.h"
#include "stream_fuzz_helpers.h"
#include "test_helpers.h"
#include "whois/whois.h"

namespace smash::obs {
namespace {

// Minimal JSON well-formedness check: balanced {}/[] outside strings, valid
// string escapes, non-empty. Not a parser — tools/check_trace.py does full
// validation in CI; this catches broken quoting/nesting at unit-test speed.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !s.empty() && !in_string && stack.empty();
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Registry registry;
  Counter& counter = registry.counter("test.hits_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(registry.snapshot().counter("test.hits_total")->value,
            kThreads * kPerThread);
}

TEST(Counter, HandleIsIdempotentPerName) {
  Registry registry;
  Counter& a = registry.counter("test.c_total");
  Counter& b = registry.counter("test.c_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(Registry, SnapshotIsIsolatedFromLaterUpdates) {
  Registry registry;
  Counter& counter = registry.counter("test.c_total");
  Gauge& gauge = registry.gauge("test.depth");
  counter.inc(5);
  gauge.set(1.5);

  const MetricsSnapshot before = registry.snapshot();
  counter.inc(100);
  gauge.set(9.0);

  EXPECT_EQ(before.counter("test.c_total")->value, 5u);
  EXPECT_EQ(before.gauge("test.depth")->value, 1.5);
  const MetricsSnapshot after = registry.snapshot();
  EXPECT_EQ(after.counter("test.c_total")->value, 105u);
  EXPECT_EQ(after.gauge("test.depth")->value, 9.0);
  EXPECT_EQ(before.counter("test.missing"), nullptr);
}

TEST(HistogramMetric, BucketBoundariesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram& h = registry.histogram("test.lat_ms", {1.0, 10.0, 100.0});
  // le semantics: v <= bound lands in that bucket; above the last bound
  // lands in +Inf.
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (inclusive)
  h.observe(1.0001); // bucket 1
  h.observe(10.0);   // bucket 1 (inclusive)
  h.observe(99.9);   // bucket 2
  h.observe(100.0);  // bucket 2 (inclusive)
  h.observe(100.1);  // +Inf
  h.observe(1e9);    // +Inf

  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.1 + 1e9);
}

TEST(HistogramMetric, ConcurrentObservesCountExactly) {
  Registry registry;
  Histogram& h = registry.histogram("test.lat_ms", {1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t % 3) * 5.0);  // buckets 0, 1, 1
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramMetric, DefaultLatencyBucketsAreAscending) {
  for (const auto* bounds : {&latency_buckets_ms(), &latency_buckets_ns()}) {
    ASSERT_FALSE(bounds->empty());
    for (std::size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

TEST(Registry, CallbackGaugeEvaluatesAtSnapshotAndReplaces) {
  Registry registry;
  double value = 1.0;
  registry.gauge_callback("test.age_ms", [&value] { return value; });
  EXPECT_EQ(registry.snapshot().gauge("test.age_ms")->value, 1.0);
  value = 2.0;
  EXPECT_EQ(registry.snapshot().gauge("test.age_ms")->value, 2.0);

  // Replace-on-reregister (a recovered engine takes over the gauge).
  registry.gauge_callback("test.age_ms", [] { return 42.0; });
  EXPECT_EQ(registry.snapshot().gauge("test.age_ms")->value, 42.0);

  registry.remove("test.age_ms");
  EXPECT_EQ(registry.snapshot().gauge("test.age_ms"), nullptr);
}

TEST(RegistryDeathTest, KindMismatchIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Registry registry;
  registry.counter("test.name");
  EXPECT_DEATH(registry.gauge("test.name"), "different metric kind");
  registry.histogram("test.h", {1.0, 2.0});
  EXPECT_DEATH(registry.histogram("test.h", {1.0, 3.0}), "different bounds");
}

// Golden exposition output: scrapers parse this text, so the format is a
// contract — name sanitization, HELP/TYPE lines, cumulative buckets, +Inf,
// _sum/_count, and name-sorted ordering regardless of registration order.
TEST(RenderPrometheus, GoldenOutput) {
  Registry registry;
  registry.histogram("stream.mine_ms", {1.0, 10.0}, "mine latency")
      .observe(0.5);
  registry.histogram("stream.mine_ms", {1.0, 10.0}).observe(5.0);
  registry.histogram("stream.mine_ms", {1.0, 10.0}).observe(50.0);
  registry.counter("stream.events_total", "events ingested").inc(7);
  registry.gauge("stream.queue_depth").set(2.5);

  const std::string expected =
      "# HELP smash_stream_events_total events ingested\n"
      "# TYPE smash_stream_events_total counter\n"
      "smash_stream_events_total 7\n"
      "# HELP smash_stream_mine_ms mine latency\n"
      "# TYPE smash_stream_mine_ms histogram\n"
      "smash_stream_mine_ms_bucket{le=\"1\"} 1\n"
      "smash_stream_mine_ms_bucket{le=\"10\"} 2\n"
      "smash_stream_mine_ms_bucket{le=\"+Inf\"} 3\n"
      "smash_stream_mine_ms_sum 55.5\n"
      "smash_stream_mine_ms_count 3\n"
      "# TYPE smash_stream_queue_depth gauge\n"
      "smash_stream_queue_depth 2.5\n";
  EXPECT_EQ(registry.render_prometheus(), expected);
}

TEST(RenderPrometheus, EmptyRegistry) {
  Registry registry;
  EXPECT_EQ(registry.render_prometheus(), "");
}

// --- tracer ------------------------------------------------------------------

// The global tracer is process-wide state; each test enables a fresh ring
// and disables on exit so tests stay order-independent.
class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::global().disable(); }
};

TEST_F(TracerTest, RecordsSpansWithNesting) {
  Tracer::global().enable(1024);
  {
    SMASH_SPAN("outer");
    SMASH_SPAN("inner", "detail-literal");
  }
  const auto events = Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer began first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[1].detail, "detail-literal");
  EXPECT_EQ(events[0].detail, nullptr);
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::global().enable(64);
  Tracer::global().disable();
  { SMASH_SPAN("ignored"); }
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST_F(TracerTest, InertSpanForSampling) {
  Tracer::global().enable(64);
  { Span span(nullptr); }
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST_F(TracerTest, RingWrapKeepsNewestAndCountsDropped) {
  Tracer::global().enable(4);
  for (int i = 0; i < 10; ++i) {
    SMASH_SPAN("wrap");
  }
  const auto events = Tracer::global().events();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(Tracer::global().recorded(), 10u);
  EXPECT_EQ(Tracer::global().dropped(), 6u);
  // The survivors are the newest four records.
  for (const auto& e : events) EXPECT_GT(e.seq, 6u);
}

TEST_F(TracerTest, ConcurrentSpansAllLand) {
  Tracer::global().enable(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        SMASH_SPAN("mt");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Tracer::global().recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(Tracer::global().events().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(TracerTest, ChromeJsonIsWellFormedAndMonotonic) {
  Tracer::global().enable(256);
  {
    SMASH_SPAN("stream.epoch_seal");
    SMASH_SPAN("mine.join", "client");
  }
  const std::string json = Tracer::global().dump_chrome_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stream.epoch_seal\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"detail\":\"client\"}"), std::string::npos);

  // Events are emitted sorted by ts.
  const auto events = Tracer::global().events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

TEST_F(TracerTest, ClearDropsEventsKeepsEnabled) {
  Tracer::global().enable(64);
  { SMASH_SPAN("before"); }
  Tracer::global().clear();
  EXPECT_TRUE(Tracer::global().events().empty());
  EXPECT_TRUE(Tracer::global().enabled());
  { SMASH_SPAN("after"); }
  EXPECT_EQ(Tracer::global().events().size(), 1u);
}

// --- logger ------------------------------------------------------------------

TEST(MetricsLogger, AppendsTimestampedPrometheusBlocks) {
  const auto dir = std::filesystem::temp_directory_path() / "smash_obs_logger";
  std::filesystem::remove_all(dir);
  auto registry = std::make_shared<Registry>();
  registry->counter("test.events_total", "events").inc(12);
  registry->histogram("test.lat_ms", {1.0, 10.0}).observe(0.5);
  const std::string path = (dir / "metrics.prom").string();
  {
    // Long interval: only flush_now() and the final dtor block write.
    MetricsLogger logger(registry, path, std::chrono::milliseconds(60000));
    logger.flush_now();
    EXPECT_GE(logger.blocks_written(), 1u);
    // The shutdown block must carry updates made after the last flush.
    registry->counter("test.events_total").inc(3);
    registry->gauge("test.depth").set(2.5);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const std::string ts_prefix = "# ts_unix_ms ";
  std::vector<std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(ts_prefix, 0) == 0) {
      EXPECT_GT(std::stoll(line.substr(ts_prefix.size())), 0) << line;
      blocks.emplace_back();
      continue;
    }
    ASSERT_FALSE(blocks.empty()) << "block without a timestamp: " << line;
    blocks.back() += line + "\n";
  }
  ASSERT_GE(blocks.size(), 2u);  // flush_now + final dtor snapshot
  EXPECT_NE(blocks.front().find("smash_test_events_total 12\n"),
            std::string::npos)
      << blocks.front();
  // The registry is quiesced: the last block is its exposition, byte for
  // byte.
  EXPECT_EQ(blocks.back(), registry->render_prometheus());
  std::filesystem::remove_all(dir);
}

// --- engine integration ------------------------------------------------------

stream::RequestEvent event_at(std::uint64_t time_s, std::string client,
                              std::string host) {
  stream::RequestEvent e;
  e.time_s = time_s;
  e.client = std::move(client);
  e.host = std::move(host);
  e.path = "/x.html";
  e.user_agent = "UA";
  return e;
}

TEST(EngineMetrics, RegistryReflectsIngestAndPublishes) {
  whois::Registry whois_db;
  stream::StreamConfig config;
  config.epoch_seconds = 100;
  config.window_epochs = 3;
  config.smash.idf_threshold = 50;

  stream::StreamEngine engine(config, whois_db);
  ASSERT_NE(engine.metrics(), nullptr);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 5; ++i) {
      engine.ingest(event_at(static_cast<std::uint64_t>(epoch) * 100 + i,
                             test::numbered("c", i), "evil.com"));
    }
  }
  engine.finish();

  const auto snap = engine.metrics()->snapshot();
  EXPECT_EQ(snap.counter("stream.events_total")->value, 20u);
  EXPECT_EQ(snap.counter("stream.epoch_closes_total")->value,
            engine.epochs_closed_total());
  // One close-to-publish observation per published snapshot — the bench's
  // consistency gate, held as an invariant here.
  EXPECT_EQ(snap.histogram("stream.close_to_publish_ms")->count,
            engine.snapshots_published());
  EXPECT_EQ(snap.histogram("stream.mine_ms")->count,
            engine.snapshots_published());
  EXPECT_GE(snap.gauge("stream.snapshot_age_ms")->value, 0.0);

  // Pipeline stage histograms landed on the same registry via
  // SmashConfig::metrics.
  EXPECT_EQ(snap.histogram("pipeline.mine_ms")->count,
            engine.snapshots_published());
  EXPECT_NE(snap.histogram("pipeline.mine_ms.client"), nullptr);
}

// StreamConfig::metrics_dir: the engine's logger leaves Prometheus blocks
// behind, the last written at teardown with the final counts.
TEST(EngineMetrics, MetricsDirKeepsPrometheusHistory) {
  const auto dir = std::filesystem::temp_directory_path() / "smash_engine_prom";
  std::filesystem::remove_all(dir);
  whois::Registry whois_db;
  stream::StreamConfig config;
  config.epoch_seconds = 100;
  config.window_epochs = 3;
  config.metrics_dir = dir.string();
  {
    stream::StreamEngine engine(config, whois_db);
    engine.ingest(event_at(10, "c1", "a.com"));
    engine.ingest(event_at(250, "c2", "b.com"));
    engine.finish();
  }
  std::ifstream in(dir / "metrics.prom");
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto last = text.rfind("# ts_unix_ms ");
  ASSERT_NE(last, std::string::npos);
  const std::string block = text.substr(text.find('\n', last) + 1);
  EXPECT_NE(block.find("smash_stream_events_total 2\n"), std::string::npos)
      << block;
  // The final block is written before the engine detaches its gauge.
  EXPECT_NE(block.find("smash_stream_snapshot_age_ms "), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(EngineMetrics, SharedRegistryAcrossEngineAndVerdicts) {
  whois::Registry whois_db;
  auto shared = std::make_shared<Registry>();
  stream::StreamConfig config;
  config.epoch_seconds = 100;
  config.window_epochs = 3;
  config.smash.idf_threshold = 50;
  config.metrics = shared;

  stream::StreamEngine engine(config, whois_db);
  ASSERT_EQ(engine.metrics(), shared);
  for (int i = 0; i < 5; ++i) {
    engine.ingest(event_at(static_cast<std::uint64_t>(i), test::numbered("c", i),
                           "evil.com"));
  }
  engine.finish();

  stream::VerdictService service(engine.slot(), shared);
  service.lookup("evil.com");
  service.lookup("benign.org");

  const auto snap = shared->snapshot();
  EXPECT_EQ(snap.counter("verdict.lookups_total")->value, 2u);
  EXPECT_EQ(snap.counter("stream.events_total")->value, 5u);
  EXPECT_EQ(service.stats().queries, 2u);
}

TEST(VerdictMetrics, PrivateRegistryKeepsPerInstanceStats) {
  whois::Registry whois_db;
  stream::StreamConfig config;
  config.epoch_seconds = 100;
  config.window_epochs = 3;
  stream::StreamEngine engine(config, whois_db);

  stream::VerdictService a(engine.slot());
  stream::VerdictService b(engine.slot());
  a.lookup("x.com");
  a.lookup("y.com");
  b.lookup("z.com");
  EXPECT_EQ(a.stats().queries, 2u);
  EXPECT_EQ(b.stats().queries, 1u);
}

// --- exporter-consistency gates ----------------------------------------------

// The exported metrics must agree with what the engine and the verdict
// service did. The suite name keeps both gates in CI's TSan filter
// (`*Stream*`); the tracer fixture disables the global tracer on exit.
class StreamObsGates : public TracerTest {};

// verdict.lookup_ns times every kLookupSampleStride-th lookup per thread and
// verdict.lookups_total counts all of them, so the histogram's sample count
// stays within 2 of lookups_total / stride: the stride counter is
// thread-local and shared across services, so this thread may be mid-stride
// at either end. A sampling predicate that over- or under-samples fails it.
TEST_F(StreamObsGates, SampledLookupCountTracksStride) {
  whois::Registry whois_db;
  stream::StreamConfig config;
  config.epoch_seconds = 100;
  config.window_epochs = 3;
  config.smash.idf_threshold = 50;
  stream::StreamEngine engine(config, whois_db);
  for (int i = 0; i < 5; ++i) {
    engine.ingest(event_at(static_cast<std::uint64_t>(i), test::numbered("c", i),
                           "evil.com"));
  }
  engine.finish();
  ASSERT_GE(engine.snapshots_published(), 1u);

  const stream::VerdictService service(engine.slot());
  constexpr std::uint64_t kStride = stream::VerdictService::kLookupSampleStride;
  constexpr std::uint64_t kLookups = 100 * kStride + kStride / 2;
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    // Both lookup entry points share the sampling predicate.
    if (i % 2 == 0) {
      service.lookup(i % 3 == 0 ? "evil.com" : "never-seen.example");
    } else {
      service.lookup_request("unknown.example", "10.0.0.1");
    }
  }

  const auto snap = service.metrics()->snapshot();
  ASSERT_NE(snap.counter("verdict.lookups_total"), nullptr);
  ASSERT_NE(snap.histogram("verdict.lookup_ns"), nullptr);
  const std::uint64_t total = snap.counter("verdict.lookups_total")->value;
  const std::uint64_t sampled = snap.histogram("verdict.lookup_ns")->count;
  EXPECT_EQ(total, kLookups);
  const std::uint64_t expected = total / kStride;
  const std::uint64_t diff =
      sampled > expected ? sampled - expected : expected - sampled;
  EXPECT_LE(diff, 2u) << "verdict.lookup_ns count " << sampled
                      << " vs lookups_total " << total << " / stride "
                      << kStride;
}

// A durable (fsync on seal, checkpointing) engine with the tracer on: WAL
// fsyncs are timed, every publication observes close-to-publish once, the
// trace shows one epoch's whole dataflow from ingest to checkpoint install,
// and the Prometheus text carries the histograms operators scrape.
TEST_F(StreamObsGates, DurableRunExportsFsyncPublishesAndSpans) {
  const auto dir = std::filesystem::temp_directory_path() / "smash_obs_durable";
  std::filesystem::remove_all(dir);

  const auto scenario = synth::generate_stream(test::tiny_scenario_config());

  stream::StreamConfig config;
  config.epoch_seconds = 600;
  config.window_epochs = 6;
  config.smash.idf_threshold = 50;
  config.durability_dir = dir.string();
  config.fsync_policy = stream::WalFsync::kOnSeal;
  config.checkpoint_every_epochs = 2;

  Tracer::global().enable(1u << 16);
  std::uint64_t publications = 0;
  std::shared_ptr<Registry> registry;
  {
    stream::StreamEngine engine(config, scenario.whois);
    synth::feed(engine, scenario);
    engine.finish();
    publications = engine.snapshots_published();
    registry = engine.metrics();
  }
  const std::string trace_json = Tracer::global().dump_chrome_json();
  std::filesystem::remove_all(dir);

  ASSERT_NE(registry, nullptr);
  ASSERT_GT(publications, 0u);
  const auto snap = registry->snapshot();
  const auto* fsync_ms = snap.histogram("wal.fsync_ms");
  ASSERT_NE(fsync_ms, nullptr);
  EXPECT_GT(fsync_ms->count, 0u);
  const auto* close_ms = snap.histogram("stream.close_to_publish_ms");
  ASSERT_NE(close_ms, nullptr);
  EXPECT_EQ(close_ms->count, publications);

  for (const char* span_name :
       {"stream.ingest", "stream.epoch_seal", "stream.assemble", "stream.mine",
        "mine.join", "louvain.sweep", "stream.publish", "wal.fsync",
        "ckpt.install"}) {
    EXPECT_NE(trace_json.find(std::string("\"name\":\"") + span_name + "\""),
              std::string::npos)
        << "trace has no " << span_name << " span";
  }

  const std::string prometheus = registry->render_prometheus();
  EXPECT_NE(prometheus.find("smash_stream_close_to_publish_ms_bucket"),
            std::string::npos);
  EXPECT_NE(prometheus.find("smash_wal_fsync_ms_bucket"), std::string::npos);
}

}  // namespace
}  // namespace smash::obs
