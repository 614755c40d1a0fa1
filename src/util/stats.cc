#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace smash::util {

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean: empty input");
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> out;
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool last_of_value = i + 1 == samples.size() || samples[i + 1] != samples[i];
    if (last_of_value) {
      out.push_back({samples[i], static_cast<double>(i + 1) / n});
    }
  }
  return out;
}

double cdf_at(const std::vector<CdfPoint>& cdf, double x) {
  double best = 0.0;
  for (const auto& p : cdf) {
    if (p.x <= x) best = p.fraction;
    else break;
  }
  return best;
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins)
    : lo(lo_), hi(hi_), counts(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
}

void Histogram::add(double x) {
  if (x < lo) {
    ++underflow;
  } else if (x >= hi) {
    ++overflow;
  }
  const double t = (x - lo) / (hi - lo);
  auto bin = static_cast<std::int64_t>(t * static_cast<double>(counts.size()));
  bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts.size()) - 1);
  ++counts[static_cast<std::size_t>(bin)];
}

std::uint64_t Histogram::total() const {
  std::uint64_t acc = 0;
  for (auto c : counts) acc += c;
  return acc;
}

std::string Histogram::ascii(int width, int label_decimals) const {
  std::uint64_t max_count = 1;
  for (auto c : counts) max_count = std::max(max_count, c);
  std::string out;
  const double bin_width = (hi - lo) / static_cast<double>(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double left = lo + bin_width * static_cast<double>(i);
    const auto bar_len = static_cast<int>(
        static_cast<double>(counts[i]) / static_cast<double>(max_count) * width);
    out += '[';
    out += format_fixed(left, label_decimals);
    out += ", ";
    out += format_fixed(left + bin_width, label_decimals);
    out += ") ";
    out.append(static_cast<std::size_t>(bar_len), '#');
    out += ' ';
    out += std::to_string(counts[i]);
    out += '\n';
  }
  if (underflow > 0 || overflow > 0) {
    out += "clamped: " + std::to_string(underflow) + " below " +
           format_fixed(lo, label_decimals) + ", " + std::to_string(overflow) +
           " at/above " + format_fixed(hi, label_decimals) + "\n";
  }
  return out;
}

double phi_erf(double x, double mu, double sigma) {
  if (sigma <= 0.0) throw std::invalid_argument("phi_erf: sigma must be > 0");
  return 0.5 * (1.0 + std::erf((x - mu) / sigma));
}

}  // namespace smash::util
