// Streaming perf baseline: a day-long timestamped scenario driven through
// the StreamEngine twice — synchronous mining (ingest waits at each epoch
// close until the mining thread has published) and asynchronous mining
// (ingest returns immediately; bursts coalesce to the newest window).
// Measures end-to-end
// epoch-close-to-snapshot-publish latency (merge / mine / snapshot
// breakdown), the max per-event ingest stall in each mode (the async
// acceptance bar: ingest must never block on mining), detection latency
// against campaign ground truth, VerdictService lookup throughput, and the
// durability tax: ingest overhead of write-ahead logging under each fsync
// policy plus the wall-time to recover the finished log. Written to
// BENCH_stream.json.
//
// Also measures the observability tax: the same durable feed with the
// metrics registry and span tracer off vs on (acceptance bar: <= 2%), with
// in-bench consistency gates tying the exported histograms to the bench's
// own counts. `--obs-dump <dir>` saves the obs-on run's Prometheus text,
// registry JSON, periodic JSONL, and Chrome trace JSON (Perfetto-loadable)
// for tools/check_trace.py and manual inspection.
//
// Usage: perf_stream [output.json] [--smoke] [--obs-dump <dir>]
//   --smoke: minutes-long scenario for CI bitrot checks (same code paths,
//            tiny population).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/engine.h"
#include "stream/verdict.h"
#include "synth/stream_gen.h"

namespace {

using smash::stream::EpochId;

smash::synth::StreamScenarioConfig scenario_config(bool smoke) {
  smash::synth::StreamScenarioConfig config;
  config.seed = 2015;
  if (smoke) {
    config.duration_s = 2 * 3600;
    config.benign_servers = 150;
    config.benign_clients = 120;
    config.benign_visits = 2500;
    config.popular_servers = 2;
    config.popular_clients = 250;
    config.campaigns = 2;
  } else {
    config.duration_s = 86400;
    config.benign_servers = 1200;
    config.benign_clients = 800;
    config.benign_visits = 40000;
    config.popular_servers = 6;
    config.popular_clients = 250;
    config.campaigns = 6;
  }
  config.campaign_servers = 6;
  config.campaign_bots = 5;
  config.poll_interval_s = 300;
  config.active_fraction = 0.35;
  return config;
}

smash::stream::StreamConfig stream_config(bool smoke, bool async) {
  smash::stream::StreamConfig config;
  config.epoch_seconds = smoke ? 600 : 3600;
  config.window_epochs = smoke ? 12 : 24;
  config.smash.idf_threshold = 200;  // popular_clients = 250 get filtered
  config.async_mining = async;
  return config;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

struct FeedResult {
  double feed_ms = 0.0;
  double stall_max_ms = 0.0;   // worst single ingest() call
  double stall_mean_ms = 0.0;  // mean ingest() call
};

// Feeds every event, timing each ingest call individually; `on_publish`
// (may be empty) runs whenever the publication counter advanced.
template <typename OnPublish>
FeedResult feed_timed(smash::stream::StreamEngine& engine,
                      const smash::synth::StreamScenario& scenario,
                      OnPublish&& on_publish) {
  FeedResult out;
  std::uint64_t seen_publications = 0;
  double stall_sum_ms = 0.0;
  const auto feed_start = std::chrono::steady_clock::now();
  for (const auto& event : scenario.events) {
    const auto start = std::chrono::steady_clock::now();
    smash::synth::ingest_event(engine, event);
    const double stall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    stall_sum_ms += stall_ms;
    out.stall_max_ms = std::max(out.stall_max_ms, stall_ms);
    if (engine.snapshots_published() != seen_publications) {
      seen_publications = engine.snapshots_published();
      on_publish();
    }
  }
  engine.finish();
  on_publish();
  out.feed_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - feed_start)
                    .count();
  out.stall_mean_ms =
      scenario.events.empty()
          ? 0.0
          : stall_sum_ms / static_cast<double>(scenario.events.size());
  return out;
}

void report_close_records(smash::bench::JsonReporter& report,
                          const smash::stream::StreamEngine& engine,
                          const FeedResult& feed, const char* prefix) {
  const auto records = engine.close_records();
  std::vector<double> total_ms, assemble_ms, mine_ms, snapshot_ms;
  std::size_t peak_window_requests = 0;
  for (const auto& record : records) {
    total_ms.push_back(record.total_ms);
    assemble_ms.push_back(record.assemble_ms);
    mine_ms.push_back(record.mine_ms);
    snapshot_ms.push_back(record.snapshot_ms);
    peak_window_requests = std::max(peak_window_requests, record.window_requests);
  }
  report.add(std::string(prefix) + "/epoch_close_to_publish", mean(total_ms),
             {{"max_ms", max_of(total_ms)},
              {"assemble_ms", mean(assemble_ms)},
              {"mine_ms", mean(mine_ms)},
              {"snapshot_ms", mean(snapshot_ms)},
              {"publications", static_cast<double>(records.size())},
              {"epochs_closed", static_cast<double>(engine.epochs_closed_total())},
              {"windows_coalesced", static_cast<double>(engine.windows_coalesced())},
              {"peak_window_requests", static_cast<double>(peak_window_requests)},
              {"feed_total_ms", feed.feed_ms}});
  report.add(std::string(prefix) + "/ingest_stall", feed.stall_max_ms,
             {{"mean_ms", feed.stall_mean_ms},
              {"mine_mean_ms", mean(mine_ms)}});
  std::printf(
      "%-13s %zu closes, %zu publications (%llu coalesced)  close->publish "
      "%0.1f ms mean / %0.1f ms max  (merge %0.2f, mine %0.1f, snapshot "
      "%0.2f)  ingest stall %0.3f ms max / %0.4f ms mean\n",
      prefix, static_cast<std::size_t>(engine.epochs_closed_total()),
      records.size(),
      static_cast<unsigned long long>(engine.windows_coalesced()),
      mean(total_ms), max_of(total_ms), mean(assemble_ms), mean(mine_ms),
      mean(snapshot_ms), feed.stall_max_ms, feed.stall_mean_ms);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_stream.json";
  std::string obs_dump_dir;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--obs-dump") == 0 && i + 1 < argc) {
      obs_dump_dir = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  const auto scenario = smash::synth::generate_stream(scenario_config(smoke));
  smash::bench::JsonReporter report("stream");

  // --- synchronous engine: probe detection after every publication ----------
  smash::stream::StreamEngine engine(stream_config(smoke, /*async=*/false),
                                     scenario.whois);
  const smash::stream::VerdictService service(engine.slot());
  const std::uint32_t epoch_seconds = engine.config().epoch_seconds;

  std::vector<EpochId> first_flagged(scenario.campaigns.size(), 0);
  std::vector<bool> detected(scenario.campaigns.size(), false);
  const auto probe = [&] {
    for (std::size_t c = 0; c < scenario.campaigns.size(); ++c) {
      if (detected[c]) continue;
      if (service.lookup(scenario.campaigns[c].servers[0]).malicious) {
        detected[c] = true;
        first_flagged[c] = engine.snapshot()->last_epoch();
      }
    }
  };
  const FeedResult sync_feed = feed_timed(engine, scenario, probe);
  report_close_records(report, engine, sync_feed, "stream");

  // --- asynchronous engine: ingest must never block on mining ---------------
  smash::stream::StreamEngine async_engine(stream_config(smoke, /*async=*/true),
                                           scenario.whois);
  const FeedResult async_feed = feed_timed(async_engine, scenario, [] {});
  report_close_records(report, async_engine, async_feed, "stream_async");

  // --- detection latency (sync engine) ---------------------------------------
  std::vector<double> latency_epochs;
  std::size_t missed = 0;
  for (std::size_t c = 0; c < scenario.campaigns.size(); ++c) {
    if (!detected[c]) {
      ++missed;
      continue;
    }
    const EpochId activation = scenario.campaigns[c].start_s / epoch_seconds;
    latency_epochs.push_back(first_flagged[c] >= activation
                                 ? static_cast<double>(first_flagged[c] - activation)
                                 : 0.0);
  }
  report.add("stream/detection_latency_epochs", mean(latency_epochs),
             {{"max_epochs", max_of(latency_epochs)},
              {"campaigns", static_cast<double>(scenario.campaigns.size())},
              {"missed", static_cast<double>(missed)}});
  std::printf("stream  detection latency %0.2f epochs mean / %0.0f max  (%zu/%zu detected)\n",
              mean(latency_epochs), max_of(latency_epochs),
              scenario.campaigns.size() - missed, scenario.campaigns.size());

  // --- verdict lookup throughput --------------------------------------------
  const std::size_t lookups = smoke ? 20000 : 1000000;
  std::size_t hits = 0;
  const double lookup_ms = smash::bench::time_once_ms([&] {
    for (std::size_t i = 0; i < lookups; ++i) {
      // Alternate flagged / benign / unknown hosts to mix hash paths.
      const auto& truth = scenario.campaigns[i % scenario.campaigns.size()];
      switch (i % 3) {
        case 0:
          hits += service.lookup(truth.servers[i % truth.servers.size()]).malicious;
          break;
        case 1:
          hits += service.lookup("site" + std::to_string(i % 97) + ".org").malicious;
          break;
        default:
          hits += service.lookup("never-seen" + std::to_string(i % 31) + ".example")
                      .malicious;
          break;
      }
    }
  });
  const double qps = lookup_ms > 0.0
                         ? static_cast<double>(lookups) / (lookup_ms / 1000.0)
                         : 0.0;
  report.add("stream/verdict_lookup", lookup_ms,
             {{"lookups", static_cast<double>(lookups)},
              {"qps", qps},
              {"hits", static_cast<double>(hits)}});
  std::printf("stream  %zu lookups in %0.1f ms  (%0.0f lookups/s)\n", lookups,
              lookup_ms, qps);

  // --- exporter-consistency gate: sampled latency vs lookup counter ---------
  // verdict.lookup_ns times every kLookupSampleStride-th lookup per thread;
  // verdict.lookups_total counts all of them. The two must agree — the gate
  // hard-fails when the histogram's sample count drifts from
  // lookups_total / stride, which is exactly what a broken sampling
  // predicate (the old `% stride == 1`, which oversampled each thread's
  // first lookup) produces.
  {
    const auto verdict_metrics = service.metrics()->snapshot();
    const auto* lookups_total = verdict_metrics.counter("verdict.lookups_total");
    const auto* lookup_ns = verdict_metrics.histogram("verdict.lookup_ns");
    if (lookups_total == nullptr || lookup_ns == nullptr) {
      std::fprintf(stderr, "sampling gate: verdict metrics missing\n");
      return 1;
    }
    constexpr std::uint64_t stride =
        smash::stream::VerdictService::kLookupSampleStride;
    const std::uint64_t expected = lookups_total->value / stride;
    // The stride counter is thread_local and shared across services, so a
    // thread can be mid-stride at either boundary: one sample of slack per
    // thread that looked anything up (this bench: the main thread).
    constexpr std::uint64_t slack = 2;
    const std::uint64_t diff = lookup_ns->count > expected
                                   ? lookup_ns->count - expected
                                   : expected - lookup_ns->count;
    if (diff > slack) {
      std::fprintf(stderr,
                   "sampling gate: verdict.lookup_ns count %llu vs "
                   "lookups_total %llu / stride %llu = %llu expected "
                   "(tolerance %llu)\n",
                   static_cast<unsigned long long>(lookup_ns->count),
                   static_cast<unsigned long long>(lookups_total->value),
                   static_cast<unsigned long long>(stride),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(slack));
      return 1;
    }
    report.add("stream/verdict_sampling_gate",
               static_cast<double>(lookup_ns->count),
               {{"lookups_total", static_cast<double>(lookups_total->value)},
                {"sampled", static_cast<double>(lookup_ns->count)},
                {"stride", static_cast<double>(stride)}});
    std::printf("stream  sampling gate: %llu of %llu lookups timed (1/%llu)\n",
                static_cast<unsigned long long>(lookup_ns->count),
                static_cast<unsigned long long>(lookups_total->value),
                static_cast<unsigned long long>(stride));
  }

  // --- durability: WAL ingest tax per fsync policy, recovery wall-time ------
  const std::pair<const char*, smash::stream::WalFsync> policies[] = {
      {"off", smash::stream::WalFsync::kOff},
      {"on_seal", smash::stream::WalFsync::kOnSeal},
      {"every_record", smash::stream::WalFsync::kEveryRecord},
  };
  for (const auto& [policy_name, policy] : policies) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("smash_perf_durability_") + policy_name))
            .string();
    std::filesystem::remove_all(dir);
    auto durable_config = stream_config(smoke, /*async=*/false);
    durable_config.durability_dir = dir;
    durable_config.fsync_policy = policy;
    durable_config.checkpoint_every_epochs = 6;

    FeedResult durable_feed;
    std::uintmax_t dir_bytes = 0;
    {
      smash::stream::StreamEngine durable(durable_config, scenario.whois);
      durable_feed = feed_timed(durable, scenario, [] {});
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        dir_bytes += entry.file_size();
      }
    }

    std::unique_ptr<smash::stream::StreamEngine> recovered;
    const double recover_ms = smash::bench::time_once_ms([&] {
      recovered = smash::stream::StreamEngine::recover(durable_config,
                                                       scenario.whois);
    });
    const auto& rstats = recovered->recovery_stats();
    const double overhead =
        sync_feed.feed_ms > 0.0 ? durable_feed.feed_ms / sync_feed.feed_ms
                                : 0.0;
    report.add(std::string("stream_durable_") + policy_name + "/feed",
               durable_feed.feed_ms,
               {{"overhead_vs_no_wal", overhead},
                {"stall_max_ms", durable_feed.stall_max_ms},
                {"stall_mean_ms", durable_feed.stall_mean_ms},
                {"dir_mib", static_cast<double>(dir_bytes) / (1024.0 * 1024.0)},
                {"recover_ms", recover_ms},
                {"events_replayed",
                 static_cast<double>(rstats.events_replayed)},
                {"used_checkpoint", rstats.used_checkpoint ? 1.0 : 0.0}});
    std::printf(
        "durable/%-12s feed %8.1f ms (%0.2fx no-WAL)  stall %0.3f ms max  "
        "%0.1f MiB on disk  recover %0.1f ms (%llu events replayed, ckpt=%d)\n",
        policy_name, durable_feed.feed_ms, overhead, durable_feed.stall_max_ms,
        static_cast<double>(dir_bytes) / (1024.0 * 1024.0), recover_ms,
        static_cast<unsigned long long>(rstats.events_replayed),
        rstats.used_checkpoint ? 1 : 0);
    recovered.reset();
    std::filesystem::remove_all(dir);
  }

  // --- observability: metrics + tracing tax, export consistency -------------
  {
    const auto obs_dir = [](const char* tag) {
      const std::string dir = (std::filesystem::temp_directory_path() /
                               (std::string("smash_perf_obs_") + tag))
                                  .string();
      std::filesystem::remove_all(dir);
      return dir;
    };
    auto obs_config = stream_config(smoke, /*async=*/false);
    obs_config.fsync_policy = smash::stream::WalFsync::kOnSeal;
    obs_config.checkpoint_every_epochs = 6;

    // Baseline: the identical durable feed with the registry detached (every
    // handle null) and the tracer disabled.
    obs_config.metrics_enabled = false;
    obs_config.durability_dir = obs_dir("off");
    double obs_off_ms = 0.0;
    {
      smash::stream::StreamEngine off_engine(obs_config, scenario.whois);
      obs_off_ms = feed_timed(off_engine, scenario, [] {}).feed_ms;
    }
    std::filesystem::remove_all(obs_config.durability_dir);

    // Instrumented: registry on, global span tracer recording, and — when
    // dumping — the periodic JSONL logger writing into the dump directory.
    obs_config.metrics_enabled = true;
    obs_config.durability_dir = obs_dir("on");
    if (!obs_dump_dir.empty()) {
      std::filesystem::create_directories(obs_dump_dir);
      obs_config.metrics_dir = obs_dump_dir;
      obs_config.metrics_interval_ms = 1000;
    }
    smash::obs::Tracer::global().enable(1u << 16);
    double obs_on_ms = 0.0;
    std::uint64_t publications = 0;
    std::shared_ptr<smash::obs::Registry> registry;
    {
      smash::stream::StreamEngine on_engine(obs_config, scenario.whois);
      obs_on_ms = feed_timed(on_engine, scenario, [] {}).feed_ms;
      publications = on_engine.snapshots_published();
      registry = on_engine.metrics();
    }
    const std::uint64_t spans = smash::obs::Tracer::global().recorded();
    const std::uint64_t dropped = smash::obs::Tracer::global().dropped();
    const std::string trace_json =
        smash::obs::Tracer::global().dump_chrome_json();
    smash::obs::Tracer::global().disable();
    std::filesystem::remove_all(obs_config.durability_dir);

    // Consistency gates: the exported metrics must agree with the bench's
    // own ground truth, and the trace must show one epoch's full dataflow.
    const auto snap = registry->snapshot();
    const auto* close_hist = snap.histogram("stream.close_to_publish_ms");
    if (close_hist == nullptr || close_hist->count != publications) {
      std::fprintf(stderr,
                   "obs gate: stream.close_to_publish_ms count %llu != %llu "
                   "publications\n",
                   close_hist ? static_cast<unsigned long long>(close_hist->count)
                              : 0ull,
                   static_cast<unsigned long long>(publications));
      return 1;
    }
    const auto* fsync_hist = snap.histogram("wal.fsync_ms");
    if (fsync_hist == nullptr || fsync_hist->count == 0) {
      std::fprintf(stderr, "obs gate: wal.fsync_ms histogram empty on a "
                           "durable on_seal run\n");
      return 1;
    }
    for (const char* span_name :
         {"stream.ingest", "stream.epoch_seal", "stream.assemble",
          "stream.mine", "mine.join", "louvain.sweep", "stream.publish",
          "wal.fsync", "ckpt.install"}) {
      if (trace_json.find(std::string("\"name\":\"") + span_name + "\"") ==
          std::string::npos) {
        std::fprintf(stderr, "obs gate: trace has no \"%s\" span\n", span_name);
        return 1;
      }
    }

    if (!obs_dump_dir.empty()) {
      const auto dump = [&](const char* file, const std::string& body) {
        std::ofstream out(std::filesystem::path(obs_dump_dir) / file,
                          std::ios::trunc);
        out << body;
        return out.good();
      };
      if (!dump("metrics.prom", smash::obs::render_prometheus(snap)) ||
          !dump("metrics.json", smash::obs::render_json(snap) + "\n") ||
          !dump("trace.json", trace_json)) {
        std::fprintf(stderr, "obs dump: failed writing to %s\n",
                     obs_dump_dir.c_str());
        return 1;
      }
      std::printf("obs dump: metrics.prom, metrics.json, metrics.jsonl, "
                  "trace.json in %s\n",
                  obs_dump_dir.c_str());
    }

    const double obs_overhead =
        obs_off_ms > 0.0 ? obs_on_ms / obs_off_ms : 0.0;
    report.add("stream_obs/feed", obs_on_ms,
               {{"obs_off_ms", obs_off_ms},
                {"overhead_vs_obs_off", obs_overhead},
                {"spans_recorded", static_cast<double>(spans)},
                {"spans_dropped", static_cast<double>(dropped)},
                {"wal_fsyncs", static_cast<double>(fsync_hist->count)},
                {"publications", static_cast<double>(publications)}});
    std::printf(
        "obs     feed %8.1f ms instrumented vs %8.1f ms off (%0.3fx)  "
        "%llu spans (%llu dropped), %llu fsyncs timed\n",
        obs_on_ms, obs_off_ms, obs_overhead,
        static_cast<unsigned long long>(spans),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(fsync_hist->count));
  }

  if (!report.write(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
