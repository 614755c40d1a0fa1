// stream_day: a closed-loop replay of a day of traffic through a
// synchronous StreamEngine with a write-ahead log, then recovery from that
// log. Graph mining (the uri-file dimension's Louvain above all), ingest
// and the WAL carry the time here.
//
// End-to-end: throughput_per_s (events ingested per second of the feed),
// freshness_ms.p50 and latency_us.p50 (the ingest() call that closes an
// epoch, close->publish), setup_s, peak_rss_mb. Traced (--trace 1): every
// close is recomputed stage by stage from public layer functions, its
// digest must equal the engine's published snapshot, and the stage spans
// give the per-layer split.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/preshard.h"
#include "durability/journal.h"
#include "spans.h"
#include "staged.h"
#include "stream/engine.h"
#include "stream/snapshot.h"
#include "synth/stream_gen.h"
#include "util.h"

namespace perfbench {

namespace {

using smash::stream::StreamEngine;

constexpr std::uint32_t kEpochSeconds = 600;
constexpr std::uint32_t kWindowEpochs = 36;
constexpr int kRecoveries = 10;
constexpr int kSetups = 25;

// perf_stream's day population, seeded by the benchmark seed.
smash::synth::StreamScenarioConfig scenario_config(std::uint64_t seed) {
  smash::synth::StreamScenarioConfig config;
  config.seed = seed;
  config.duration_s = 86400;
  config.benign_servers = 700;
  config.benign_clients = 500;
  config.benign_visits = 24000;
  config.popular_servers = 6;
  config.popular_clients = 250;
  config.campaigns = 6;
  config.campaign_servers = 6;
  config.campaign_bots = 5;
  config.poll_interval_s = 300;
  config.active_fraction = 0.35;
  return config;
}

smash::stream::StreamConfig stream_config(const std::string& durability_dir) {
  smash::stream::StreamConfig config;
  config.epoch_seconds = kEpochSeconds;
  config.window_epochs = kWindowEpochs;
  config.smash.idf_threshold = 200;  // the popular head (250 clients) is filtered
  config.smash.num_threads = 4;
  config.durability_dir = durability_dir;
  config.fsync_policy = smash::stream::WalFsync::kOnSeal;
  config.checkpoint_every_epochs = 6;
  return config;
}

std::shared_ptr<const smash::stream::DetectionSnapshot> build_snapshot(
    const smash::core::SmashResult& result, const smash::util::Interner& ips,
    std::size_t window_requests, const StreamEngine& engine,
    const smash::stream::DetectionSnapshot& published) {
  const auto& window = engine.ingestor().window();
  return smash::stream::DetectionSnapshot::build(
      result, ips, window_requests, engine.ingestor().aggregates(),
      published.ingest_stats(), window.front()->id(), window.back()->id(),
      published.sequence());
}

std::vector<smash::core::ShardPreRef> window_refs(const StreamEngine& engine) {
  std::vector<smash::core::ShardPreRef> refs;
  for (const auto& shard : engine.ingestor().window()) {
    refs.push_back({&shard->trace(), &shard->pre()});
  }
  return refs;
}

// Traced-run state: spans, per-layer samples, and the per-close pairing of
// the staged recomputation with the engine's own close->publish.
struct Tracing {
  SpanRecorder spans;
  LayerSamples samples;
  std::vector<int> close_roots;
  std::vector<double> engine_close_ms;  // EpochCloseRecord::total_ms
  std::uint64_t digest_mismatches = 0;
};

// Recomputes the window just published, one public layer call at a time.
void staged_close(const StreamEngine& engine, const smash::whois::Registry& whois,
                  Tracing& tracing) {
  const auto published = engine.snapshot();
  const std::uint64_t seq = published->sequence();
  const auto& smash_config = engine.config().smash;
  const int root = tracing.spans.open("stream.close", seq, -1);

  const int merge = tracing.spans.open("core.merge_shard_pres", seq, root);
  auto window_pre = smash::core::merge_shard_pres(window_refs(engine), smash_config);
  tracing.spans.close(merge);
  const std::size_t window_requests = window_pre.pre.total_requests;

  const auto result = staged_mine(std::move(window_pre.pre), whois, smash_config,
                                  tracing.spans, seq, root, tracing.samples);

  const int build = tracing.spans.open("stream.snapshot_build", seq, root);
  const auto staged =
      build_snapshot(result, window_pre.ips, window_requests, engine, *published);
  tracing.spans.close(build);
  tracing.spans.close(root);

  tracing.samples.add("core.merge_shard_pres_ms.p50", tracing.spans.ms(merge), "ms");
  tracing.samples.add("stream.snapshot_build_ms.p50", tracing.spans.ms(build), "ms");
  tracing.close_roots.push_back(root);
  tracing.engine_close_ms.push_back(engine.close_records().back().total_ms);
  if (staged->digest() != published->digest()) ++tracing.digest_mismatches;
}

// Critical-path self time of a span: its own self time plus, for each run
// of overlapping children (a fan-out), the critical path of the longest.
double critical_self_ms(const std::vector<SpanRecord>& spans,
                        const std::vector<std::vector<int>>& children, int index) {
  double total = SpanRecorder::self_ms(spans, index);
  auto kids = children[static_cast<std::size_t>(index)];
  std::sort(kids.begin(), kids.end(), [&](int a, int b) {
    return spans[static_cast<std::size_t>(a)].start_ns <
           spans[static_cast<std::size_t>(b)].start_ns;
  });
  std::size_t i = 0;
  while (i < kids.size()) {
    int longest = kids[i];
    std::int64_t reach = spans[static_cast<std::size_t>(kids[i])].end_ns;
    std::size_t j = i + 1;
    for (; j < kids.size() && spans[static_cast<std::size_t>(kids[j])].start_ns < reach; ++j) {
      reach = std::max(reach, spans[static_cast<std::size_t>(kids[j])].end_ns);
      if (spans[static_cast<std::size_t>(kids[j])].ms() >
          spans[static_cast<std::size_t>(longest)].ms()) {
        longest = kids[j];
      }
    }
    total += critical_self_ms(spans, children, longest);
    i = j;
  }
  return total;
}

struct Lap {
  double feed_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> ingest_us;  // every ingest() call, closing ones included
  std::vector<double> close_ms;
  std::vector<double> recover_s;
  std::uint64_t closes = 0;
  std::uint64_t publications = 0;
  std::uint64_t failed = 0;  // late-dropped events + unpublished closes
  std::uint64_t wal_bytes = 0;
  std::uint64_t replayed_events = 0;
};

Lap run_lap(const Options& options, const smash::synth::StreamScenario& scenario,
            Report& report, Tracing* tracing) {
  Lap lap;
  const std::string dir = fresh_dir(options.workdir, "stream_day-wal");
  std::vector<bool> flagged(scenario.campaigns.size(), false);
  {
    StreamEngine engine(stream_config(dir), scenario.whois);
    const std::int64_t feed_start = now_ns();
    for (const auto& event : scenario.events) {
      const std::uint64_t closes_before = engine.epochs_closed_total();
      const std::int64_t start = now_ns();
      smash::synth::ingest_event(engine, event);
      const std::int64_t end = now_ns();
      lap.ingest_us.push_back(static_cast<double>(end - start) / 1e3);
      if (engine.epochs_closed_total() == closes_before) continue;
      // Synchronous mining: the snapshot is visible when ingest() returns.
      lap.close_ms.push_back(static_cast<double>(end - start) / 1e6);
      const auto snapshot = engine.snapshot();
      if (snapshot == nullptr || snapshot->sequence() != engine.epochs_closed_total()) {
        report.check(false, "stream_day: close not published when ingest() returned");
        continue;
      }
      for (std::size_t c = 0; c < scenario.campaigns.size(); ++c) {
        if (!flagged[c] && snapshot->find_host(scenario.campaigns[c].servers[0]) != nullptr) {
          flagged[c] = true;
        }
      }
      if (tracing != nullptr) staged_close(engine, scenario.whois, *tracing);
    }
    // No finish(): the open epoch stays in the WAL only, so recovery below
    // replays a real log tail on top of the newest checkpoint.
    lap.feed_s = seconds_since(feed_start);
    lap.events = scenario.events.size();
    lap.closes = engine.epochs_closed_total();
    lap.publications = engine.snapshots_published();

    // Oracle: the last published window re-mined by the batch pipeline.
    const auto final_snapshot = engine.snapshot();
    auto window_pre =
        smash::core::merge_shard_pres(window_refs(engine), engine.config().smash);
    const std::size_t window_requests = window_pre.pre.total_requests;
    const auto result = smash::core::SmashPipeline(engine.config().smash)
                            .run_preprocessed(std::move(window_pre.pre), scenario.whois);
    const auto oracle =
        build_snapshot(result, window_pre.ips, window_requests, engine, *final_snapshot);
    report.check(oracle->digest() == final_snapshot->digest(),
                 "stream_day: final snapshot differs from run_preprocessed on its window");
    lap.failed = final_snapshot->late_dropped() +
                 (lap.closes - final_snapshot->sequence());
    if (tracing != nullptr) lap.wal_bytes = dir_bytes(dir);
  }
  for (std::size_t c = 0; c < flagged.size(); ++c) {
    report.check(flagged[c], "stream_day: campaign " + std::to_string(c) + " never flagged");
  }

  // Recovery from pristine copies of the finished log (recover() installs a
  // checkpoint, so each run needs its own copy).
  for (int r = 0; r < kRecoveries; ++r) {
    const std::string copy = (std::filesystem::path(options.workdir) /
                              ("stream_day-recover-" + std::to_string(r)))
                                 .string();
    copy_dir(dir, copy);
    const std::int64_t start = now_ns();
    auto recovered = StreamEngine::recover(stream_config(copy), scenario.whois);
    lap.recover_s.push_back(seconds_since(start));
    report.check(recovered->snapshot() != nullptr,
                 "stream_day: recovered engine published nothing");
    lap.replayed_events = recovered->recovery_stats().events_replayed;
    recovered.reset();
    std::filesystem::remove_all(copy);
  }
  std::filesystem::remove_all(dir);
  return lap;
}

// DurableJournal::append / seal_epoch timed on the same events, in a fresh
// directory (traced runs only).
void journal_layer(const Options& options, const smash::synth::StreamScenario& scenario,
                   LayerSamples& samples) {
  const std::string dir = fresh_dir(options.workdir, "stream_day-journal");
  {
    smash::durability::DurableJournal journal(dir, smash::durability::FsyncPolicy::kOnSeal);
    bool open = false;
    smash::stream::EpochId epoch = 0;
    const auto seal = [&] {
      const std::int64_t start = now_ns();
      journal.seal_epoch(epoch);
      samples.add("durability.seal_ms.p50", ms_since(start), "ms");
    };
    for (const auto& event : scenario.events) {
      const auto event_epoch = smash::synth::event_time(event) / kEpochSeconds;
      if (open && event_epoch > epoch) seal();
      if (!open || event_epoch > epoch) epoch = event_epoch;
      open = true;
      const std::int64_t start = now_ns();
      std::visit([&journal](const auto& e) { journal.append(e); }, event);
      samples.add("durability.append_us.p50", static_cast<double>(now_ns() - start) / 1e3,
                  "us");
    }
    if (open) seal();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int run_stream_day(const Options& options) {
  Report report;
  // glibc's default mmap threshold (128 KiB), fixed. Left dynamic, it rises
  // with every large free, and the mining threads' large buffers then stay
  // in per-thread arenas: peak_rss_mb for one seed ranged 94-137 MiB with
  // the arena layout. Fixed, it reads 49 MiB within 1%. Setting it once,
  // before any engine exists, keeps the runs comparable.
  report.check(mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1,
               "stream_day: could not fix the mmap threshold");
  const auto scenario = smash::synth::generate_stream(scenario_config(options.seed));
  const auto print = scenario_fingerprint(scenario);
  report.check(print == scenario_fingerprint(
                   smash::synth::generate_stream(scenario_config(options.seed))),
               "stream_day: one seed produced two different inputs");
  note("stream_day seed=%llu inputs=%s events=%zu campaigns=%zu",
       static_cast<unsigned long long>(options.seed), print.c_str(),
       scenario.events.size(), scenario.campaigns.size());

  // Set-up: a fresh durable engine up to its first published snapshot.
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    const std::string dir = fresh_dir(options.workdir, "stream_day-setup");
    const std::int64_t start = now_ns();
    {
      StreamEngine engine(stream_config(dir), scenario.whois);
      for (const auto& event : scenario.events) {
        smash::synth::ingest_event(engine, event);
        if (engine.snapshots_published() > 0) break;
      }
      setup_s.push_back(seconds_since(start));
    }
    std::filesystem::remove_all(dir);
  }

  // Warm-up: an untimed lap grows the heap to its working size. Without it
  // the first measured lap ran about 5% slower than later ones, and runs
  // differed by how many laps they fitted.
  const Lap warm_up = run_lap(options, scenario, report, nullptr);
  report.attempt(warm_up.events + warm_up.closes);
  report.fail(warm_up.failed);

  std::unique_ptr<Tracing> tracing;
  if (options.trace) tracing = std::make_unique<Tracing>();

  const Budget budget(options.seconds);
  std::vector<Lap> laps;
  double last_lap_s = 0.0;
  while (laps.empty() || budget.fits(last_lap_s)) {
    const std::int64_t start = now_ns();
    laps.push_back(run_lap(options, scenario, report, tracing.get()));
    last_lap_s = seconds_since(start);
    const auto& lap = laps.back();
    note("lap %zu: %.2f s feed, %.2f s with checks and recovery; close->publish "
         "p10/p30/p50/p70/p90 %.1f/%.1f/%.1f/%.1f/%.1f ms, recover %.3f s",
         laps.size(), lap.feed_s, last_lap_s, percentile(lap.close_ms, 0.1),
         percentile(lap.close_ms, 0.3), percentile(lap.close_ms, 0.5),
         percentile(lap.close_ms, 0.7), percentile(lap.close_ms, 0.9),
         median(lap.recover_s));
  }

  std::vector<double> events_per_s, ingest_us, close_ms, recover_s;
  std::uint64_t closes = 0, publications = 0;
  for (const auto& lap : laps) {
    events_per_s.push_back(static_cast<double>(lap.events) / lap.feed_s);
    ingest_us.insert(ingest_us.end(), lap.ingest_us.begin(), lap.ingest_us.end());
    close_ms.insert(close_ms.end(), lap.close_ms.begin(), lap.close_ms.end());
    recover_s.insert(recover_s.end(), lap.recover_s.begin(), lap.recover_s.end());
    closes += lap.closes;
    publications += lap.publications;
    report.attempt(lap.events + lap.closes);
    report.fail(lap.failed);
  }

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("throughput_per_s", median(events_per_s), "1/s");
    // Synchronous mining: a close's snapshot is readable when the closing
    // ingest() returns, so freshness is that call's close->publish.
    report.timing("freshness_ms", close_ms, "ms");
    // The closing call is the one a writer waits on. In sets of five and
    // ten seeds the median of every ingest() call (the ≈2 µs fast path)
    // and the median restart spread up to 0.24 and 0.20 of their medians,
    // the closes at most 0.16: the restart re-mines one seed's last window.
    std::vector<double> close_us;
    for (const double ms : close_ms) close_us.push_back(ms * 1e3);
    report.timing("latency_us", close_us, "us");
    note("  ingest() calls n=%zu  p50 %.4g us; recover n=%zu  p50 %.4g s", ingest_us.size(),
         median(ingest_us), recover_s.size(), median(recover_s));
    return report.finish();
  }

  // --- traced: per-layer metrics --------------------------------------------
  Tracing& t = *tracing;
  report.check(t.digest_mismatches == 0,
               "stream_day: staged recomputation differs from the published snapshot at " +
                   std::to_string(t.digest_mismatches) + " closes");
  journal_layer(options, scenario, t.samples);

  const auto all = t.spans.spans();
  std::vector<std::vector<int>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) children[static_cast<std::size_t>(all[i].parent)].push_back(static_cast<int>(i));
  }
  double staged_total = 0.0, critical_total = 0.0, engine_total = 0.0;
  for (std::size_t k = 0; k < t.close_roots.size(); ++k) {
    staged_total += all[static_cast<std::size_t>(t.close_roots[k])].ms();
    critical_total += critical_self_ms(all, children, t.close_roots[k]);
    engine_total += t.engine_close_ms[k];
  }
  // Tracing cost: the traced, staged recomputation of each close against
  // the engine's own untraced close->publish of the same window.
  const double overhead = engine_total > 0.0 ? staged_total / engine_total : 0.0;
  const double attributed = engine_total > 0.0 ? critical_total / engine_total : 0.0;
  note("staged closes: %.1f ms traced vs %.1f ms engine close->publish (trace_overhead "
       "%.3f); critical-path self times add up to %.3f of the engine's",
       staged_total, engine_total, overhead, attributed);
  report.check(overhead > 0.5 && overhead < 2.0,
               "stream_day: trace_overhead outside [0.5, 2]");
  report.check(std::abs(attributed - overhead) <= 0.05 * overhead,
               "stream_day: stage self times do not add up to close->publish within "
               "trace_overhead");

  const auto ingest = summarize(ingest_us);
  report.metric("stream.ingest_us.p50", ingest.p50, "us");
  report.metric("stream.ingest_us.max", ingest.max, "us");
  report.metric("stream.publish_ratio",
                closes > 0 ? static_cast<double>(publications) / static_cast<double>(closes) : 0.0,
                "ratio");
  t.samples.report_medians(report);
  report.metric("durability.wal_bytes", static_cast<double>(laps.back().wal_bytes), "bytes");
  report.metric("durability.replayed_events",
                static_cast<double>(laps.back().replayed_events), "count");
  report.metric("durability.recover_s", median(recover_s), "s");
  report.metric("trace_overhead", overhead, "ratio");
  write_trace(options, t.spans);
  return report.finish();
}

}  // namespace perfbench
