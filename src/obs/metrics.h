// Runtime metrics registry: process-wide (or per-engine) named counters,
// gauges, and fixed-bucket latency histograms with near-free hot-path
// updates, plus the Prometheus text-exposition exporter.
//
// Design (docs/OBSERVABILITY.md):
//  - Hot path: counter/histogram updates are relaxed atomic increments on
//    per-thread-sharded, cache-line-padded cells — no locks, no fences, no
//    allocation. A counter increment is one thread-local read plus one
//    relaxed fetch_add; a histogram observe adds a small bucket search.
//  - Read path: snapshot-on-read. snapshot() sums the shards under the
//    registration mutex and returns an owned MetricsSnapshot; renderers
//    work from the snapshot, so exporting never perturbs the hot path
//    beyond the relaxed loads.
//  - Handles: counter()/gauge()/histogram() are idempotent per name and
//    return a reference that stays valid for the registry's lifetime.
//    Re-acquiring a name with a different metric kind is a fatal
//    SMASH_CHECK (one name, one meaning).
//  - Names are dotted lowercase ("stream.mine_ms"); the Prometheus
//    renderer prefixes "smash_" and maps every non-[a-zA-Z0-9_:] byte to
//    '_' ("smash_stream_mine_ms"). Counters end in "_total", histograms
//    carry their unit as a suffix ("_ms", "_ns") — see the catalog in
//    docs/OBSERVABILITY.md.
//
// Consistency model: counters are exact (every increment lands in exactly
// one shard); a snapshot taken concurrently with writers observes each
// metric at some point between the snapshot's start and end — per-metric
// monotonic, not a cross-metric atomic cut. Histogram per-bucket counts
// and the sum are updated with independent relaxed ops, so a concurrent
// snapshot can momentarily see count/sum skew by in-flight observations;
// both are exact once writers quiesce.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace smash::obs {

// Number of per-thread shards per counter/histogram. Threads are assigned
// round-robin at first use; more threads than shards just share cells
// (still exact — fetch_add — only contended).
inline constexpr std::size_t kMetricShards = 16;

// Stable small index for the calling thread, in [0, kMetricShards).
std::size_t metric_shard_index() noexcept;

namespace detail {
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

// Monotonic counter. Hot-path inc() is a relaxed fetch_add on the calling
// thread's shard; value() sums shards (exact once writers quiesce).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[metric_shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : shards_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  Counter() = default;
  std::array<detail::ShardCell, kMetricShards> shards_{};
};

// Last-write-wins instantaneous value (queue depth, snapshot sequence).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds
// (Prometheus `le` semantics): a sample v lands in the first bucket with
// v <= bounds[i]; anything above the last bound lands in the implicit
// +Inf bucket (index bounds.size()). count and sum ride along, so mean
// latency and rates fall out of any two snapshots.
class Histogram {
 public:
  void observe(double v) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    auto& shard = shards_[metric_shard_index()];
    shard.counts[b].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  // Non-cumulative per-bucket counts (size bounds().size() + 1; last is
  // the +Inf bucket), summed across shards.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

// Default bucket bounds for millisecond-scale latency histograms:
// 10 µs .. 30 s, roughly 1-2.5-5 per decade.
const std::vector<double>& latency_buckets_ms();
// Default bucket bounds for nanosecond-scale latency histograms
// (lock-free lookups): 50 ns .. ~1.6 ms, powers of two.
const std::vector<double>& latency_buckets_ns();

// --- snapshots ---------------------------------------------------------------

struct CounterSnapshot {
  std::string name, help;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name, help;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name, help;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // non-cumulative; last = +Inf bucket
  std::uint64_t count = 0;
  double sum = 0.0;
};

// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* counter(std::string_view name) const noexcept;
  const GaugeSnapshot* gauge(std::string_view name) const noexcept;
  const HistogramSnapshot* histogram(std::string_view name) const noexcept;
};

// Prometheus text exposition format (one HELP/TYPE block per metric,
// cumulative `le` buckets, names prefixed "smash_" and sanitized). The
// registry's only export format.
std::string render_prometheus(const MetricsSnapshot& snapshot);

// --- registry ----------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Process-wide registry for code with no engine-scoped registry at hand.
  // Engine-scoped registries (StreamConfig::metrics) are preferred: tests
  // and multi-engine processes then never share counters by accident.
  static Registry& global();

  // Find-or-create by name; the returned reference lives as long as the
  // registry. A name re-acquired with a different kind (or, for
  // histograms, different bounds) is a fatal SMASH_CHECK.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view help = "");
  // histogram() with latency_buckets_ms().
  Histogram& latency_histogram_ms(std::string_view name,
                                  std::string_view help = "");

  // Gauge computed at snapshot time (snapshot age, queue depths owned by
  // another subsystem). Re-registering a name replaces the provider (a
  // recovered engine takes over its predecessor's gauge). The provider
  // must stay callable until remove()d — owners with shorter lifetimes
  // than the registry must remove() in their destructor. Providers are
  // invoked with the registry mutex held: they must not call back into
  // the registry.
  void gauge_callback(std::string_view name, std::function<double()> provider,
                      std::string_view help = "");

  // Drops a metric (any kind). Outstanding references go dangling — only
  // meant for callback gauges whose provider is dying.
  void remove(std::string_view name);

  MetricsSnapshot snapshot() const;
  std::string render_prometheus() const { return obs::render_prometheus(snapshot()); }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kCallbackGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::function<double()> provider;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_;  // sorted => stable render
};

}  // namespace smash::obs
