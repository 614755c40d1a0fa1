#include "obs/logger.h"

#include <filesystem>

namespace smash::obs {

MetricsLogger::MetricsLogger(std::shared_ptr<Registry> registry,
                             std::string path,
                             std::chrono::milliseconds interval)
    : registry_(std::move(registry)), path_(std::move(path)),
      interval_(interval) {
  const auto parent = std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  out_.open(path_, std::ios::app);
  thread_ = std::thread([this] { loop(); });
}

MetricsLogger::~MetricsLogger() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write_block();  // final snapshot: short-lived engines still leave one block
}

void MetricsLogger::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (cv_.wait_for(lock, interval_, [this] { return stop_; })) return;
    lock.unlock();
    write_block();
    lock.lock();
  }
}

void MetricsLogger::write_block() {
  const auto ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  // Render outside the lock: snapshotting sums every shard and must not
  // serialize against the interval thread's wakeup.
  const std::string metrics = registry_->render_prometheus();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) return;
  out_ << "# ts_unix_ms " << ts_ms << "\n" << metrics;
  out_.flush();
  ++blocks_;
}

void MetricsLogger::flush_now() { write_block(); }

std::uint64_t MetricsLogger::blocks_written() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return blocks_;
}

}  // namespace smash::obs
