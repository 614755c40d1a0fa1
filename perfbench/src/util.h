// Shared plumbing of the benchmark runner: options, the result line,
// input fingerprints, process memory, scratch directories.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace smash::synth {
struct StreamScenario;
}  // namespace smash::synth

namespace perfbench {

class SpanRecorder;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch root inside the checkout (WAL directories, trace output).
  std::string workdir = ".bench_build/run";
};

// The run's result: the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A timing: the metric `name.p50`, plus a progress line with the sample
  // count, the highest percentile the rule supports and the maximum.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);
  // Records a failed correctness check (printed immediately).
  void check(bool ok, const std::string& what);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }

  // Prints the result line; returns the process exit code (0 only when
  // every check held).
  int finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// printf-style progress line on standard output (never the last line).
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

// FNV-1a over everything fed to it: a fingerprint of a workload's inputs.
class Fingerprint {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// Fingerprint of a generated event stream: every event field, in order,
// plus the campaign ground truth.
std::string scenario_fingerprint(const smash::synth::StreamScenario& scenario);

// Writes the spans as Chrome trace JSON to `<workdir>/<workload>-trace.json`,
// the file run.py validates with tools/check_trace.py.
void write_trace(const Options& options, const SpanRecorder& spans);

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

// Empties and recreates `<workdir>/<name>`; returns its path.
std::string fresh_dir(const std::string& workdir, const std::string& name);
std::uint64_t dir_bytes(const std::string& path);
void copy_dir(const std::string& from, const std::string& to);

// Wall-clock budget of the measured phase.
class Budget {
 public:
  explicit Budget(double seconds);
  double elapsed_s() const;
  // True when another iteration that takes about `estimate_s` still fits.
  bool fits(double estimate_s) const;

 private:
  std::int64_t start_ns_;
  double seconds_;
};

double seconds_since(std::int64_t start_ns);
double ms_since(std::int64_t start_ns);

int run_stream_day(const Options& options);
int run_batch_day(const Options& options);
int run_serve_live(const Options& options);

}  // namespace perfbench
