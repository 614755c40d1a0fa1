// Pretty-printer for the obs exporters' JSON (docs/OBSERVABILITY.md):
// either a registry dump (render_json: {"counters":...,"gauges":...,
// "histograms":...}) or a MetricsLogger JSONL file ({"ts_unix_ms":...,
// "metrics":{...}} per line). For JSONL the last line gives current
// values and the first line the baseline, so counter rates fall out of
// the two timestamps. Histograms print count / mean / bucket-interpolated
// p50/p95/p99. Exits 1 when any histogram is malformed, after printing
// everything else.
//
// Usage: smash_stats <metrics.json | metrics.jsonl>
//        smash_stats -          (read a single JSON document from stdin)
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

// --- minimal JSON reader -----------------------------------------------------
// Covers exactly what the exporters emit: objects, arrays, numbers, strings
// with \" escapes, true/false/null. Not a general-purpose parser.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.type = Json::Type::kBool;
        v.boolean = peek() == 't';
        if (!consume_literal(v.boolean ? "true" : "false")) fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          // The exporters never emit \u escapes; keep them legible if a
          // hand-edited file has one.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          out.append(text_, pos_, 4);
          pos_ += 4;
          break;
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json v;
    v.type = Json::Type::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- printing ----------------------------------------------------------------

// Linear interpolation inside the winning bucket, Prometheus
// histogram_quantile style. `bounds` are inclusive upper bounds; the +Inf
// bucket reports its lower bound (the data gives no upper edge).
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double next = cumulative + counts[b];
    if (next >= rank && counts[b] > 0.0) {
      if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      return lo + (bounds[b] - lo) * ((rank - cumulative) / counts[b]);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// Returns false if any histogram was printed as "(malformed)".
bool print_metrics(const Json& metrics, double window_s,
                   const Json* baseline) {
  if (const Json* counters = metrics.find("counters");
      counters != nullptr && !counters->object.empty()) {
    std::printf("counters\n");
    const Json* base_counters =
        baseline != nullptr ? baseline->find("counters") : nullptr;
    for (const auto& [name, value] : counters->object) {
      std::printf("  %-34s %14.0f", name.c_str(), value.number);
      if (window_s > 0.0 && base_counters != nullptr) {
        const Json* base = base_counters->find(name);
        const double delta = value.number - (base != nullptr ? base->number : 0.0);
        std::printf("   %10.1f /s", delta / window_s);
      }
      std::printf("\n");
    }
  }
  if (const Json* gauges = metrics.find("gauges");
      gauges != nullptr && !gauges->object.empty()) {
    std::printf("gauges\n");
    for (const auto& [name, value] : gauges->object) {
      std::printf("  %-34s %14.3f\n", name.c_str(), value.number);
    }
  }
  const Json* histograms = metrics.find("histograms");
  if (histograms == nullptr || histograms->object.empty()) return true;
  bool well_formed = true;
  std::printf("histograms%26s %10s %10s %10s %10s\n", "count", "mean", "p50",
              "p95", "p99");
  for (const auto& [name, hist] : histograms->object) {
    const Json* count = hist.find("count");
    const Json* sum = hist.find("sum");
    const Json* bounds_json = hist.find("bounds");
    const Json* counts_json = hist.find("counts");
    if (count == nullptr || sum == nullptr || bounds_json == nullptr ||
        counts_json == nullptr) {
      std::printf("  %-34s (malformed)\n", name.c_str());
      well_formed = false;
      continue;
    }
    std::vector<double> bounds, counts;
    for (const auto& b : bounds_json->array) bounds.push_back(b.number);
    for (const auto& c : counts_json->array) counts.push_back(c.number);
    const double n = count->number;
    std::printf("  %-33s %10.0f %10.3f %10.3f %10.3f %10.3f\n", name.c_str(),
                n, n > 0.0 ? sum->number / n : 0.0,
                bucket_quantile(bounds, counts, 0.50),
                bucket_quantile(bounds, counts, 0.95),
                bucket_quantile(bounds, counts, 0.99));
  }
  return well_formed;
}

int run(const std::string& path) {
  std::string content;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    content = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "smash_stats: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
  }

  // Split into non-empty lines: one line = registry dump, many = JSONL.
  std::vector<std::string> lines;
  std::istringstream stream(content);
  for (std::string line; std::getline(stream, line);) {
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      lines.push_back(line);
    }
  }
  if (lines.empty()) {
    std::fprintf(stderr, "smash_stats: %s is empty\n", path.c_str());
    return 1;
  }

  const Json last = JsonParser(lines.back()).parse();
  const Json* metrics = last.find("metrics");
  if (metrics == nullptr) {
    // A bare registry dump (metrics.json): no timestamps, no rates.
    return print_metrics(last, 0.0, nullptr) ? 0 : 1;
  }

  // MetricsLogger JSONL: rate counters across first -> last line.
  Json first;
  double window_s = 0.0;
  if (lines.size() > 1) {
    first = JsonParser(lines.front()).parse();
    const Json* t0 = first.find("ts_unix_ms");
    const Json* t1 = last.find("ts_unix_ms");
    if (t0 != nullptr && t1 != nullptr) {
      window_s = (t1->number - t0->number) / 1000.0;
    }
  }
  const Json* ts = last.find("ts_unix_ms");
  std::printf("%zu samples%s", lines.size(), window_s > 0.0 ? ", " : "\n");
  if (window_s > 0.0) std::printf("%.1f s window\n", window_s);
  if (ts != nullptr) std::printf("last sample at unix_ms %.0f\n", ts->number);
  return print_metrics(*metrics, window_s,
                       lines.size() > 1 ? first.find("metrics") : nullptr)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: smash_stats <metrics.json | metrics.jsonl | ->\n"
                 "pretty-prints a smash obs registry dump or MetricsLogger "
                 "JSONL file\n");
    return argc == 2 ? 0 : 2;
  }
  try {
    return run(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smash_stats: %s\n", e.what());
    return 1;
  }
}
