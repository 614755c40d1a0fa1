// batch_day: repeated SmashPipeline::run over the paper-scale 2012day
// preset, at 4 threads and at 1 thread (the single-threaded baseline).
// Preprocessing and the whois join-input build carry the time here; the
// stream layers are bypassed entirely.
//
// End-to-end: the median run at 4 threads as freshness_ms.p50 and
// latency_us.p50 (a batch result is as fresh as one run, and the run is the
// one call a caller waits for), throughput_per_s (the day's requests per
// second of a run), setup_s, peak_rss_mb. Traced (--trace 1): each
// round runs untraced at 4 threads, untraced at 1 thread (batch_serial_s)
// and staged, timing every layer call; campaigns must match throughout.
// The 1-thread time is per-layer only: on a shared host it swings between
// two modes about 25% apart, too wide for an end-to-end bound.
#include <algorithm>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/preprocess.h"
#include "spans.h"
#include "staged.h"
#include "synth/config.h"
#include "synth/world.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr int kSetups = 5;

smash::synth::WorldConfig world_config(std::uint64_t seed) {
  auto config = smash::synth::data2012day();
  config.seed = config.seed * 1000003ull + seed;
  return config;
}

smash::core::SmashConfig pipeline_config(unsigned threads) {
  smash::core::SmashConfig config;
  config.num_threads = threads;
  return config;
}

std::string fingerprint(const smash::synth::Dataset& ds) {
  Fingerprint fp;
  const auto& trace = ds.trace;
  for (const auto& name : trace.clients().names()) fp.add(name);
  for (const auto& name : trace.servers().names()) fp.add(name);
  for (const auto& request : trace.requests()) {
    fp.add(static_cast<std::uint64_t>(request.client) << 32 | request.server);
    fp.add(static_cast<std::uint64_t>(request.day) << 32 |
           static_cast<std::uint64_t>(request.status) << 8 |
           static_cast<std::uint64_t>(request.method));
    fp.add(request.path);
    fp.add(request.user_agent);
    fp.add(request.referrer);
  }
  for (std::uint32_t s = 0; s < trace.num_servers(); ++s) {
    for (const auto ip : trace.ips_of(s)) fp.add(static_cast<std::uint64_t>(ip));
  }
  for (const auto& name : trace.ips().names()) fp.add(name);
  return fp.hex();
}

// Campaigns as sorted server-name lists: comparable across runs.
std::vector<std::vector<std::string>> campaigns_of(const smash::core::SmashResult& result) {
  std::vector<std::vector<std::string>> out;
  for (const auto& campaign : result.campaigns) {
    std::vector<std::string> names;
    for (const auto server : campaign.servers) names.push_back(result.server_name(server));
    std::sort(names.begin(), names.end());
    out.push_back(std::move(names));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int run_batch_day(const Options& options) {
  Report report;
  const auto ds = smash::synth::generate_world(world_config(options.seed));
  const auto print = fingerprint(ds);
  report.check(print == fingerprint(smash::synth::generate_world(world_config(options.seed))),
               "batch_day: one seed produced two different inputs");
  note("batch_day seed=%llu inputs=%s requests=%zu servers=%u",
       static_cast<unsigned long long>(options.seed), print.c_str(),
       ds.trace.num_requests(), ds.trace.num_servers());

  // Set-up: a fresh pipeline to its first (cold) result.
  std::vector<double> setup_s;
  std::vector<std::vector<std::string>> reference;
  for (int s = 0; s < kSetups; ++s) {
    const std::int64_t start = now_ns();
    const smash::core::SmashPipeline pipeline(pipeline_config(4));
    const auto result = pipeline.run(ds.trace, ds.whois);
    setup_s.push_back(seconds_since(start));
    if (s == 0) reference = campaigns_of(result);
  }
  report.check(!reference.empty(), "batch_day: no campaign detected");

  const smash::core::SmashPipeline parallel(pipeline_config(4));
  const smash::core::SmashPipeline serial(pipeline_config(1));
  SpanRecorder spans;
  LayerSamples samples;
  std::vector<double> batch_s, serial_s, staged_s, requests_per_s;
  std::uint64_t runs = 0, failed = 0;
  const auto run_checked = [&](const smash::core::SmashPipeline& pipeline,
                               std::vector<double>& times, const char* what) {
    const std::int64_t start = now_ns();
    const auto result = pipeline.run(ds.trace, ds.whois);
    times.push_back(seconds_since(start));
    ++runs;
    if (campaigns_of(result) != reference) {
      ++failed;
      report.check(false, std::string("batch_day: campaigns differ at ") + what);
    }
  };
  const auto run_staged = [&] {
    const auto id = static_cast<std::uint64_t>(staged_s.size());
    const auto config = pipeline_config(4);
    const int root = spans.open("batch.run", id, -1);
    const int pre_span = spans.open("core.preprocess", id, root);
    auto pre = smash::core::preprocess(ds.trace, config);
    spans.close(pre_span);
    const auto result = staged_mine(std::move(pre), ds.whois, config, spans, id, root, samples);
    spans.close(root);
    samples.add("core.preprocess_ms", spans.ms(pre_span), "ms");
    staged_s.push_back(spans.ms(root) / 1e3);
    ++runs;
    if (campaigns_of(result) != reference) {
      ++failed;
      report.check(false, "batch_day: staged run's campaigns differ");
    }
  };

  // Untimed: the 1-thread pipeline must find the 4-thread campaigns.
  std::vector<double> unmeasured_s;
  run_checked(serial, unmeasured_s, "1 thread");

  const Budget budget(options.seconds);
  double last_round_s = 0.0;
  while (batch_s.size() < 2 || budget.fits(last_round_s)) {
    const std::int64_t start = now_ns();
    run_checked(parallel, batch_s, "4 threads");
    requests_per_s.push_back(static_cast<double>(ds.trace.num_requests()) / batch_s.back());
    if (options.trace) {
      run_checked(serial, serial_s, "1 thread");
      run_staged();
    }
    last_round_s = seconds_since(start);
  }
  report.attempt(runs);
  report.fail(failed);
  note("batch_day: %zu rounds", batch_s.size());
  for (std::size_t i = 0; i < batch_s.size(); ++i) {
    if (options.trace) {
      note("  round %zu: %.3f s at 4 threads, %.3f s at 1 thread, %.3f s staged", i,
           batch_s[i], serial_s[i], staged_s[i]);
    } else {
      note("  round %zu: %.3f s at 4 threads", i, batch_s[i]);
    }
  }

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    const double run_s = median(batch_s);
    report.metric("throughput_per_s", median(requests_per_s), "1/s");
    report.metric("freshness_ms.p50", run_s * 1e3, "ms");
    report.metric("latency_us.p50", run_s * 1e6, "us");
    return report.finish();
  }

  samples.report_medians(report);
  report.metric("batch_serial_s", median(serial_s), "s");
  const double overhead = median(staged_s) / median(batch_s);
  note("staged runs %.3f s vs untraced %.3f s: trace_overhead %.3f", median(staged_s),
       median(batch_s), overhead);
  report.metric("trace_overhead", overhead, "ratio");
  write_trace(options, spans);
  return report.finish();
}

}  // namespace perfbench
