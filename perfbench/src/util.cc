#include "util.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "spans.h"
#include "synth/stream_gen.h"

namespace perfbench {

namespace fs = std::filesystem;

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::timing(const std::string& name, const std::vector<double>& samples,
                    const std::string& unit) {
  const Summary summary = summarize(samples);
  metric(name + ".p50", summary.p50, unit);
  note("  %-34s n=%zu  p50 %.4g %s  highest supported p%g = %.4g  max %.4g",
       name.c_str(), summary.n, summary.p50, unit.c_str(), summary.tail_q * 100.0,
       summary.tail_value, summary.max);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  note("CHECK FAILED: %s", what.c_str());
}

int Report::finish() const {
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

void note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

void Fingerprint::add(std::string_view bytes) {
  for (const unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Fingerprint::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

std::string Fingerprint::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

std::string scenario_fingerprint(const smash::synth::StreamScenario& scenario) {
  Fingerprint fp;
  for (const auto& event : scenario.events) {
    fp.add(static_cast<std::uint64_t>(event.index()));
    std::visit(
        [&fp](const auto& e) {
          using E = std::decay_t<decltype(e)>;
          fp.add(e.time_s);
          if constexpr (std::is_same_v<E, smash::stream::RequestEvent>) {
            fp.add(e.client);
            fp.add(e.host);
            fp.add(e.path);
            fp.add(e.user_agent);
            fp.add(e.referrer);
            fp.add(static_cast<std::uint64_t>(e.method));
            fp.add(static_cast<std::uint64_t>(e.status));
          } else if constexpr (std::is_same_v<E, smash::stream::ResolutionEvent>) {
            fp.add(e.host);
            fp.add(e.ip);
          } else {
            fp.add(e.from);
            fp.add(e.to);
          }
        },
        event);
  }
  for (const auto& campaign : scenario.campaigns) {
    for (const auto& server : campaign.servers) fp.add(server);
    fp.add(campaign.start_s);
    fp.add(campaign.end_s);
  }
  return fp.hex();
}

void write_trace(const Options& options, const SpanRecorder& spans) {
  const auto path = fs::path(options.workdir) / (options.workload + "-trace.json");
  std::ofstream(path, std::ios::trunc) << spans.chrome_json();
  note("trace: %zu spans written to %s", spans.size(), path.string().c_str());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string fresh_dir(const std::string& workdir, const std::string& name) {
  const fs::path dir = fs::path(workdir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::uint64_t dir_bytes(const std::string& path) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

Budget::Budget(double seconds) : start_ns_(now_ns()), seconds_(seconds) {}

double Budget::elapsed_s() const { return seconds_since(start_ns_); }

bool Budget::fits(double estimate_s) const {
  return elapsed_s() + estimate_s <= seconds_;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

// --- SpanRecorder ------------------------------------------------------------

namespace {

int thread_index() {
  static std::mutex mutex;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

int SpanRecorder::open(std::string name, std::uint64_t id, int parent) {
  const int tid = thread_index();
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), id, parent, tid, start, start});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

int SpanRecorder::add(std::string name, std::uint64_t id, int parent,
                      std::int64_t start_ns, std::int64_t end_ns, int tid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), id, parent, tid, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double SpanRecorder::ms(int index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_[static_cast<std::size_t>(index)].ms();
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double SpanRecorder::self_ms(const std::vector<SpanRecord>& spans, int index) {
  const auto& span = spans[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const auto& s : spans) {
    if (s.parent == index) {
      children.emplace_back(std::max(s.start_ns, span.start_ns),
                            std::min(s.end_ns, span.end_ns));
    }
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [start, end] : children) {
    const auto from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
}

std::string SpanRecorder::chrome_json() const {
  auto all = spans();
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return all[a].start_ns < all[b].start_ns;
  });
  const std::int64_t origin = all.empty() ? 0 : all[order.front()].start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& s = all[order[k]];
    if (k > 0) out += ",";
    out += "{\"name\":\"";
    json_escape(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"span\":%zu,"
                  "\"parent\":%d}}",
                  s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), order[k], s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
