// MetricsLogger: periodically appends a Prometheus text exposition of a
// Registry to a file, so a live engine leaves a metrics history
// (StreamConfig::metrics_dir -> <dir>/metrics.prom) without any scrape
// infrastructure. Each block is
//   # ts_unix_ms <wall clock>
//   <render_prometheus(registry)>
// and parses as it stands: the timestamp line is a Prometheus comment.
// The destructor writes one final block, so even a run shorter than the
// interval leaves a complete snapshot behind.
#pragma once

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace smash::obs {

class MetricsLogger {
 public:
  // Appends to `path` (parent directories are created). The registry is
  // shared: it must simply exist; writers may keep updating it.
  MetricsLogger(std::shared_ptr<Registry> registry, std::string path,
                std::chrono::milliseconds interval);
  // Stops the thread and writes a final block.
  ~MetricsLogger();

  MetricsLogger(const MetricsLogger&) = delete;
  MetricsLogger& operator=(const MetricsLogger&) = delete;

  // Writes one block now (any thread).
  void flush_now();

  const std::string& path() const noexcept { return path_; }
  std::uint64_t blocks_written() const noexcept;

 private:
  void loop();
  void write_block();

  std::shared_ptr<Registry> registry_;
  std::string path_;
  std::chrono::milliseconds interval_;

  mutable std::mutex mutex_;  // guards out_, blocks_, stop_
  std::condition_variable cv_;
  std::ofstream out_;
  std::uint64_t blocks_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace smash::obs
