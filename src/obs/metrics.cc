#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace smash::obs {

namespace {

// Locale-independent, round-trip-stable-enough rendering for exporter
// output: integers print without a decimal point, everything else %.9g.
std::string format_double(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// Prometheus metric name: "smash_" prefix, every byte outside
// [a-zA-Z0-9_:] mapped to '_'.
std::string prometheus_name(std::string_view name) {
  std::string out = "smash_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::size_t metric_shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SMASH_CHECK(!bounds_.empty(), "Histogram: needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    SMASH_CHECK(bounds_[i - 1] < bounds_[i],
                "Histogram: bucket bounds must be strictly ascending");
  }
  for (auto& shard : shards_) {
    shard.counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) shard.counts[b] = 0;
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto c : bucket_counts()) total += c;
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

const std::vector<double>& latency_buckets_ms() {
  static const std::vector<double> bounds = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,
      25.0, 50.0,  100., 250., 500., 1000., 2500.0, 5000.0, 10000.0, 30000.0};
  return bounds;
}

const std::vector<double>& latency_buckets_ns() {
  static const std::vector<double> bounds = {
      50.,    100.,   200.,    400.,    800.,    1600.,  3200.,
      6400.,  12800., 25600.,  51200.,  102400., 204800., 409600.,
      819200., 1638400.};
  return bounds;
}

// --- MetricsSnapshot ---------------------------------------------------------

namespace {
template <typename Vec>
auto find_by_name(const Vec& v, std::string_view name) ->
    typename Vec::const_pointer {
  for (const auto& s : v) {
    if (s.name == name) return &s;
  }
  return nullptr;
}
}  // namespace

const CounterSnapshot* MetricsSnapshot::counter(std::string_view name) const noexcept {
  return find_by_name(counters, name);
}
const GaugeSnapshot* MetricsSnapshot::gauge(std::string_view name) const noexcept {
  return find_by_name(gauges, name);
}
const HistogramSnapshot* MetricsSnapshot::histogram(std::string_view name) const noexcept {
  return find_by_name(histograms, name);
}

// --- exporter ----------------------------------------------------------------

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  // The per-kind vectors are each name-sorted; merge them into one
  // name-sorted exposition so output is stable regardless of registration
  // order. Walk the three lists with a three-way min-merge.
  std::string out;
  std::size_t ci = 0, gi = 0, hi = 0;
  const auto next_name = [&]() -> const std::string* {
    const std::string* best = nullptr;
    if (ci < snapshot.counters.size()) best = &snapshot.counters[ci].name;
    if (gi < snapshot.gauges.size() &&
        (best == nullptr || snapshot.gauges[gi].name < *best)) {
      best = &snapshot.gauges[gi].name;
    }
    if (hi < snapshot.histograms.size() &&
        (best == nullptr || snapshot.histograms[hi].name < *best)) {
      best = &snapshot.histograms[hi].name;
    }
    return best;
  };
  const auto help_line = [&](const std::string& pname, const std::string& help,
                             const char* type) {
    if (!help.empty()) out += "# HELP " + pname + " " + help + "\n";
    out += "# TYPE " + pname + " " + type + "\n";
  };
  while (const std::string* name = next_name()) {
    if (ci < snapshot.counters.size() && &snapshot.counters[ci].name == name) {
      const auto& c = snapshot.counters[ci++];
      const auto pname = prometheus_name(c.name);
      help_line(pname, c.help, "counter");
      out += pname + " " + std::to_string(c.value) + "\n";
    } else if (gi < snapshot.gauges.size() &&
               &snapshot.gauges[gi].name == name) {
      const auto& g = snapshot.gauges[gi++];
      const auto pname = prometheus_name(g.name);
      help_line(pname, g.help, "gauge");
      out += pname + " " + format_double(g.value) + "\n";
    } else {
      const auto& h = snapshot.histograms[hi++];
      const auto pname = prometheus_name(h.name);
      help_line(pname, h.help, "histogram");
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        cumulative += h.counts[b];
        out += pname + "_bucket{le=\"" + format_double(h.bounds[b]) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      cumulative += h.counts.back();
      out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
      out += pname + "_sum " + format_double(h.sum) + "\n";
      out += pname + "_count " + std::to_string(h.count) + "\n";
    }
  }
  return out;
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry{Kind::kCounter, std::string(help),
                std::unique_ptr<Counter>(new Counter()), nullptr, {}, nullptr};
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  SMASH_CHECK(it->second.kind == Kind::kCounter,
              "Registry: name already registered as a different metric kind");
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry{Kind::kGauge, std::string(help), nullptr,
                std::unique_ptr<Gauge>(new Gauge()), {}, nullptr};
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  SMASH_CHECK(it->second.kind == Kind::kGauge,
              "Registry: name already registered as a different metric kind");
  return *it->second.gauge;
}

void Registry::gauge_callback(std::string_view name,
                              std::function<double()> provider,
                              std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    // Replace-on-reregister: a recovered engine takes over the gauge its
    // predecessor registered on a shared registry.
    SMASH_CHECK(it->second.kind == Kind::kCallbackGauge,
                "Registry: name already registered as a different metric kind");
    it->second.provider = std::move(provider);
    return;
  }
  Entry entry{Kind::kCallbackGauge, std::string(help), nullptr, nullptr,
              std::move(provider), nullptr};
  metrics_.emplace(std::string(name), std::move(entry));
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds,
                               std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry{Kind::kHistogram, std::string(help), nullptr, nullptr, {},
                std::unique_ptr<Histogram>(new Histogram(std::move(bounds)))};
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
    return *it->second.histogram;
  }
  SMASH_CHECK(it->second.kind == Kind::kHistogram,
              "Registry: name already registered as a different metric kind");
  SMASH_CHECK(it->second.histogram->bounds() == bounds,
              "Registry: histogram re-registered with different bounds");
  return *it->second.histogram;
}

Histogram& Registry::latency_histogram_ms(std::string_view name,
                                          std::string_view help) {
  return histogram(name, latency_buckets_ms(), help);
}

void Registry::remove(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) metrics_.erase(it);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        out.counters.push_back({name, entry.help, entry.counter->value()});
        break;
      case Kind::kGauge:
        out.gauges.push_back({name, entry.help, entry.gauge->value()});
        break;
      case Kind::kCallbackGauge:
        out.gauges.push_back({name, entry.help, entry.provider()});
        break;
      case Kind::kHistogram: {
        const auto& h = *entry.histogram;
        HistogramSnapshot hs{name, entry.help, h.bounds(), h.bucket_counts(),
                             0, h.sum()};
        for (const auto c : hs.counts) hs.count += c;
        out.histograms.push_back(std::move(hs));
        break;
      }
    }
  }
  return out;
}

}  // namespace smash::obs
