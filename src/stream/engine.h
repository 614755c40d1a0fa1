// StreamEngine: the streaming dataflow over the batch pipeline.
//
//   events -> StreamIngestor (epoch shards, window ring, aggregates)
//          -> on epoch close: hand the window's sealed shards to the miner
//          -> merge cached per-epoch preprocessed shards (core/preshard.h)
//          -> SmashPipeline::run_preprocessed over the merged window
//          -> DetectionSnapshot, published RCU-style via SnapshotSlot
//          -> VerdictService (stream/verdict.h) answers without blocking
//
// Threading model: one writer thread calls ingest()/finish(); any number of
// reader threads call snapshot()/VerdictService::lookup concurrently; one
// dedicated mining thread mines and publishes.
//
// Every epoch close takes the same path: it captures the window
// (shared_ptr'd immutable shards + ingest counters) into a MiningJob and
// hands it to the mining thread. Closes that arrive while a mine is in
// flight coalesce into one pending "latest window" job — skip-to-newest,
// the queue never grows past one entry — and snapshots still publish in
// close order. StreamConfig::async_mining only decides whether the writer
// waits: when false (default) ingest() drains the mine before it returns,
// so every close publishes exactly one snapshot and ingest stalls for the
// mine; when true ingest() returns at once.
//
// Snapshot `sequence()` counts epoch closes, not publications: a jump of
// more than one (EpochCloseRecord::epochs_closed > 1) records intermediate
// windows that were skipped — by a multi-epoch timestamp gap in ingest, or
// by coalescing. Nothing is skipped silently.
//
// The only writer->reader shared state is the SnapshotSlot's atomic
// shared_ptr — readers never wait on mining and keep their snapshot alive
// until they drop it. See SnapshotSlot for the precise (not-quite-lock-free)
// guarantee. Mining-thread/ingest-thread shared state is confined to the
// job hand-off (mine_mutex_) and the close records (records_mutex_).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/pipeline.h"
#include "stream/ingest.h"
#include "stream/snapshot.h"
#include "stream/stream_config.h"
#include "util/thread_pool.h"
#include "whois/whois.h"

namespace smash::durability {
class DurableJournal;
struct CheckpointState;
}  // namespace smash::durability

namespace smash::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsLogger;
class Registry;
}  // namespace smash::obs

namespace smash::stream {

// RCU-style publication point: the writer stores a new immutable snapshot,
// readers load the current one; the shared_ptr control block keeps old
// snapshots alive for readers mid-lookup. Neither side takes a user-level
// lock and readers never wait on mining, but note that mainstream standard
// libraries implement std::atomic<std::shared_ptr> with a tiny internal
// spinlock (is_lock_free() is false), so load/store briefly contend on a
// refcount update. A hazard-pointer slot would make this truly lock-free
// if that window ever shows up in profiles.
class SnapshotSlot {
 public:
  void publish(std::shared_ptr<const DetectionSnapshot> next) {
    slot_.store(std::move(next), std::memory_order_release);
  }

  [[nodiscard]] std::shared_ptr<const DetectionSnapshot> acquire() const {
    return slot_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::shared_ptr<const DetectionSnapshot>> slot_{};
};

// Timing/outcome record of one snapshot publication (perfbench's stream_day
// reports total_ms as the engine's epoch-close-to-publish latency).
struct EpochCloseRecord {
  EpochId last_epoch = 0;        // newest epoch in the published window
  std::uint32_t window_epochs = 0;
  // Epoch closes this publication covers. 1 in steady state; > 1 when
  // intermediate windows were skipped (multi-epoch ingest gap, or
  // coalescing while a mine was in flight).
  std::uint64_t epochs_closed = 1;
  std::size_t window_requests = 0;
  std::size_t kept_servers = 0;
  std::size_t campaigns = 0;
  std::size_t malicious_servers = 0;
  double assemble_ms = 0.0;  // preprocessed-shard merge
  double mine_ms = 0.0;      // SmashPipeline mining tail
  double snapshot_ms = 0.0;  // DetectionSnapshot::build + publish
  double total_ms = 0.0;     // epoch close -> snapshot visible to readers
  bool postings_budget_exceeded = false;
};

class StreamEngine {
 public:
  // `registry` must outlive the engine (whois data is registration-time
  // state, not traffic, so it is not streamed). When
  // config.durability_dir is set, the constructor arms the WAL; it refuses
  // (SMASH_CHECK) a directory that already holds WAL or checkpoint state —
  // that state belongs to recover().
  StreamEngine(StreamConfig config, const whois::Registry& registry);
  // Drains any in-flight mine (the final snapshot still publishes).
  ~StreamEngine();

  // Rebuilds an engine from config.durability_dir after a crash: loads the
  // newest valid checkpoint (skipping corrupt ones), replays the WAL tail
  // — truncating a torn last segment to its valid prefix — and republishes
  // the current window. The recovered engine's subsequent snapshots are
  // byte-identical to an uninterrupted engine's at the same closes
  // (tests/recovery_equivalence_test.cc). An empty or absent directory is
  // a cold start. Throws durability::RecoveryError on unrecoverable
  // corruption or a config/checkpoint mismatch; never silently diverges.
  static std::unique_ptr<StreamEngine> recover(StreamConfig config,
                                               const whois::Registry& registry);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  // Forwards to the ingestor; when the event closes one or more epochs the
  // window is handed to the mining thread, and (unless async_mining) the
  // mine is drained before this call returns — a failed mine then throws
  // here. Single writer thread only.
  void ingest(const RequestEvent& event);
  void ingest(const ResolutionEvent& event);
  void ingest(const RedirectEvent& event);

  // Seals the open epoch, publishes a final snapshot, and waits for any
  // in-flight mining to finish; on return the snapshot reflects the full
  // stream. Call at stream end (or a forced checkpoint). No-op before the
  // first event.
  void finish();

  // Blocks until no mine is running or pending. The last published
  // snapshot then reflects the newest closed window. If a mine failed,
  // rethrows its exception here on the calling (writer) thread — the
  // engine itself stays usable and the next epoch close mines again.
  void wait_for_mining();

  // Current snapshot, or nullptr before the first publication. Callable
  // from any thread; never waits on mining.
  [[nodiscard]] std::shared_ptr<const DetectionSnapshot> snapshot() const {
    return slot_.acquire();
  }
  const SnapshotSlot& slot() const noexcept { return slot_; }

  const StreamIngestor& ingestor() const noexcept { return ingestor_; }
  const StreamConfig& config() const noexcept { return config_; }

  // How this engine's state was rebuilt when it came from recover();
  // all-zero for a fresh engine. Also carried on every published snapshot.
  const RecoveryStats& recovery_stats() const noexcept { return recovery_stats_; }

  // The engine's metrics registry (docs/OBSERVABILITY.md has the catalog):
  // the one from StreamConfig::metrics, or the engine-private registry
  // created when that was null. Null when config.metrics_enabled is false.
  // Callable from any thread; render via registry->render_prometheus() /
  // render_json().
  std::shared_ptr<obs::Registry> metrics() const noexcept {
    return metrics_registry_;
  }

  // Snapshots actually published. Callable from any thread.
  std::uint64_t snapshots_published() const noexcept {
    return snapshots_published_.load(std::memory_order_acquire);
  }
  // Epoch closes observed so far (>= snapshots_published(); the difference
  // is windows skipped by gaps or coalescing). Writer thread's view.
  std::uint64_t epochs_closed_total() const noexcept { return closes_total_; }
  // Times a pending (not yet started) mining job was replaced by a newer
  // window before it ran.
  std::uint64_t windows_coalesced() const noexcept {
    return windows_coalesced_.load(std::memory_order_relaxed);
  }

  // Per-publication records, in publication order. Returns a copy: the
  // mining thread appends concurrently.
  std::vector<EpochCloseRecord> close_records() const;

  // The current closed window as one trace (what the next publish would
  // mine). Exposed for the stream/batch equivalence tests.
  net::Trace assemble_window() const { return ingestor_.assemble_window(); }

 private:
  // Recovery constructor: adopts a restored ingestor, a resumed journal
  // and the replayed counters. Only recover() calls it.
  struct RecoveredTag {};
  StreamEngine(RecoveredTag, StreamConfig config, const whois::Registry& registry,
               StreamIngestor ingestor,
               std::unique_ptr<durability::DurableJournal> journal,
               std::uint64_t closes_total, RecoveryStats recovery_stats);

  // An immutable capture of one closed window, handed to the miner.
  struct MiningJob {
    std::vector<std::shared_ptr<const EpochShard>> shards;
    IngestStats ingest_stats{};
    std::uint64_t closes_upto = 0;  // closes_total_ when the job was made
    std::chrono::steady_clock::time_point closed_at{};
  };

  // Resolves the metrics registry from config_ (shared, private, or null
  // per StreamConfig::metrics_enabled/metrics) and points
  // config_.smash.metrics at it so pipeline re-mines record into the same
  // surface. Runs in the member-initializer list, before pipeline_.
  std::shared_ptr<obs::Registry> init_metrics();
  // Acquires the metric handles below and registers the snapshot-age
  // callback gauge; starts the MetricsLogger when metrics_dir is set.
  void bind_metrics();

  // Raw handles into metrics_registry_ (all null when metrics are off) so
  // the hot paths pay one null check + relaxed increment, never a name
  // lookup. The registry owns the metrics; references stay valid for its
  // lifetime.
  struct MetricHandles {
    obs::Counter* events = nullptr;
    obs::Counter* epoch_closes = nullptr;
    obs::Counter* windows_coalesced = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Histogram* close_to_publish_ms = nullptr;
    obs::Histogram* assemble_ms = nullptr;
    obs::Histogram* mine_ms = nullptr;
    obs::Histogram* snapshot_build_ms = nullptr;
    obs::Histogram* mine_queue_wait_ms = nullptr;
    obs::Gauge* mine_queue_depth = nullptr;
  };

  // Write-ahead step run before an event is journaled or ingested: when
  // the event's epoch is past the open one, logs the seal marker for the
  // open epoch (segment rotation point). No-op without durability.
  void durable_prepare(std::uint64_t time_s);
  // Writes a checkpoint every checkpoint_every_epochs closes (writer
  // thread; no-op without durability).
  void maybe_checkpoint(std::uint32_t closed);
  durability::CheckpointState build_checkpoint() const;

  // Ingest-thread epilogue: accounts `closed` epoch closes, submits the
  // new window, and drains the mine unless async_mining.
  void on_epochs_closed(std::uint32_t closed);
  // Captures the window; starts the miner or coalesces into the pending
  // job.
  void submit_or_coalesce();
  // Mining-thread loop: mine `job`, then keep draining pending jobs.
  void mining_loop(MiningJob job);
  // Mining-thread body: merge the job's cached shard preprocessing, mine,
  // build and publish the snapshot, append the close record.
  void mine_and_publish(const MiningJob& job);

  StreamConfig config_;
  const whois::Registry& registry_;
  // Declared before pipeline_: init_metrics() sets config_.smash.metrics,
  // which pipeline_'s constructor copies.
  std::shared_ptr<obs::Registry> metrics_registry_;
  MetricHandles metrics_{};
  // steady_clock nanoseconds of the last publish (-1 before the first);
  // feeds the stream.snapshot_age_ms callback gauge.
  std::atomic<std::int64_t> last_publish_ns_{-1};
  // Writer-thread sampling counter for the stream.ingest span (1/1024).
  std::uint32_t ingest_sample_ = 0;
  core::SmashPipeline pipeline_;
  StreamIngestor ingestor_;
  SnapshotSlot slot_;

  // Write-ahead log + checkpoints (null without durability_dir). All
  // journal operations run on the writer thread.
  std::unique_ptr<durability::DurableJournal> journal_;
  std::uint64_t closes_since_checkpoint_ = 0;  // ingest thread only
  RecoveryStats recovery_stats_{};

  std::uint64_t closes_total_ = 0;  // ingest thread only
  std::atomic<std::uint64_t> snapshots_published_{0};
  std::atomic<std::uint64_t> windows_coalesced_{0};

  mutable std::mutex records_mutex_;
  std::uint64_t published_closes_ = 0;  // guarded by records_mutex_
  std::vector<EpochCloseRecord> close_records_;

  std::mutex mine_mutex_;
  std::condition_variable mine_cv_;
  bool mine_in_flight_ = false;          // guarded by mine_mutex_
  std::optional<MiningJob> pending_;     // guarded by mine_mutex_
  // Exception that escaped a mine, rethrown by wait_for_mining() on the
  // writer thread. Guarded by mine_mutex_.
  std::exception_ptr mine_error_;
  // Periodic JSONL metrics writer (null unless metrics_dir is set). Holds
  // a shared_ptr to the registry, so member order is not load-bearing.
  std::unique_ptr<obs::MetricsLogger> metrics_logger_;
  // Single-thread pool running mining_loop; last member so it is destroyed
  // (joined) before any state the loop touches.
  util::ThreadPool miner_{1};
};

}  // namespace smash::stream
