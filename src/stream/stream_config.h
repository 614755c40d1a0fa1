// Configuration of the streaming subsystem: epoch-windowed ingest over the
// batch SMASH pipeline. The paper mines a full collection window (one day,
// or one week) as a single batch; the streaming engine instead ingests
// timestamped requests continuously, partitions them into fixed epochs, and
// re-mines a sliding window of the last `window_epochs` epochs on every
// epoch close.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/smash_config.h"

namespace smash::obs {
class Registry;
}  // namespace smash::obs

namespace smash::stream {

// Epoch index: event time in seconds divided by StreamConfig::epoch_seconds.
using EpochId = std::uint64_t;

// When to fsync the write-ahead log (mirrors durability::FsyncPolicy —
// kept integer-compatible; stream_config.h stays a leaf header).
enum class WalFsync : std::uint8_t {
  kOff = 0,          // page cache only: fastest, loses the OS-buffered tail
  kOnSeal = 1,       // fsync at each epoch seal: bounded loss of one epoch
  kEveryRecord = 2,  // fsync per event: no acked event ever lost
};

// How a StreamEngine::recover() run rebuilt its state; carried on every
// DetectionSnapshot the recovered engine publishes (zeroed for engines that
// never recovered).
struct RecoveryStats {
  bool recovered = false;        // this engine came from recover()
  bool used_checkpoint = false;  // state seeded from a checkpoint
  std::uint64_t checkpoint_closes = 0;   // closes_total at that checkpoint
  std::uint64_t checkpoints_skipped = 0; // newer checkpoints that failed CRC
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;  // WAL records applied (events + seals)
  std::uint64_t events_replayed = 0;   // events among them
  std::uint64_t bytes_replayed = 0;
  std::uint64_t bytes_truncated = 0;   // torn tail cut from the last segment
  // recover() replayed a non-empty WAL tail and immediately installed a
  // fresh checkpoint, so a crash-looping process re-replays a bounded tail
  // instead of an ever-growing one.
  bool checkpoint_on_recovery = false;
  double recovery_ms = 0.0;            // wall time of recover()
};

struct StreamConfig {
  // Epoch length (unit: seconds; default 3600 = one hour): long enough for
  // a campaign's bots to accumulate the co-visits the client dimension
  // needs, short enough that detection latency stays within the paper's
  // daily cadence.
  std::uint32_t epoch_seconds = 3600;

  // Sliding window (unit: epochs; default 24 = a full day at the default
  // epoch length): the engine mines the last `window_epochs` closed
  // epochs, matching the batch pipeline's one-day collection window.
  std::uint32_t window_epochs = 24;

  // Events older than the open epoch. When true (default) they are dropped
  // and counted (IngestStats::late_dropped); when false they are folded
  // into the open epoch so no traffic is lost at the cost of epoch purity.
  bool drop_late_events = true;

  // Every epoch close hands the window to a dedicated mining thread;
  // closes that arrive while a mine is in flight coalesce into one "latest
  // window" re-mine (skip-to-newest — the queue never grows past one
  // pending job), and snapshots publish in close order with
  // `DetectionSnapshot::sequence()` accounting for every skipped
  // intermediate window. This option only decides whether ingest waits:
  // when false (default) each closing ingest() drains the mine before it
  // returns, one snapshot per close, as the batch-equivalence tests drive
  // it; when true ingest() returns immediately.
  bool async_mining = false;

  // Test/bench hook: artificial delay (unit: milliseconds; default 0 =
  // none) per mine, before snapshot build, used to force epoch closes to
  // pile up behind an in-flight mine so coalescing is deterministic in
  // tests. Leave 0 in production.
  std::uint32_t mine_throttle_ms = 0;

  // Test hook: invoked once per mine at the throttle point (after mining,
  // before snapshot build). An exception it throws takes the mine-failure
  // path: the engine stays drainable and finish()/wait_for_mining() rethrow
  // the error on the writer thread. Leave null in production.
  std::function<void()> mine_test_hook;

  // Test hook: invoked inside DetectionSnapshot::build, after the header
  // fields are staged but before campaign assembly. An exception it throws
  // must leave the previously published snapshot untouched (no torn
  // publish) — tests/stream_test.cc holds the engine to that. Leave null
  // in production.
  std::function<void()> snapshot_test_hook;

  // --- durability ------------------------------------------------------------

  // When non-empty, the engine write-ahead-logs every ingested event and
  // epoch seal into this directory and checkpoints sealed state every
  // `checkpoint_every_epochs` closes; StreamEngine::recover() rebuilds an
  // equivalent engine from the directory after a crash. Empty (default)
  // disables durability entirely. A fresh engine refuses a directory that
  // already holds WAL/checkpoint state — that state is recover()'s input,
  // not scratch to clobber.
  std::string durability_dir;

  // WAL fsync cadence; ignored without durability_dir.
  WalFsync fsync_policy = WalFsync::kOnSeal;

  // Checkpoint cadence (unit: epoch closes; default 8). Smaller = shorter
  // replay after a crash, more checkpoint I/O. Must be >= 1 when
  // durability is on (validate()).
  std::uint32_t checkpoint_every_epochs = 8;

  // --- observability ---------------------------------------------------------

  // Master switch for the engine's metrics registry (docs/OBSERVABILITY.md
  // has the catalog). On (default), the engine maintains counters, gauges
  // and latency histograms for ingest, mining, publication, the WAL and
  // the verdict path; the cost is a few relaxed atomic increments per
  // event. Off, every metrics handle is null and the hot paths skip the
  // updates entirely. Detection output never depends on this switch.
  bool metrics_enabled = true;

  // Registry the engine records into. Null (default) = the engine creates
  // a private registry (inspect via StreamEngine::metrics()); set it to
  // share one surface across engines or with the process-wide
  // obs::Registry::global(). Ignored when metrics_enabled is false.
  std::shared_ptr<obs::Registry> metrics;

  // When non-empty (and metrics are enabled), a background MetricsLogger
  // appends one JSON line of the full registry every metrics_interval_ms
  // to `<metrics_dir>/metrics.jsonl` (tools/smash_stats.cc pretty-prints
  // it). Empty (default) = no periodic logging.
  std::string metrics_dir;
  std::uint32_t metrics_interval_ms = 10000;

  // Pipeline tunables for each window re-mine. smash.num_threads sizes
  // the mining fan-out AND the parallel shard-preprocess merge
  // (core::merge_shard_pres); those threads fan out from the dedicated
  // mining thread, on top of the ingest thread.
  // smash.join_memory_budget_bytes bounds each re-mine's resident
  // postings memory the same way it does a batch run (docs/MEMORY.md) —
  // the sliding window already bounds input size, so streaming rarely
  // needs it, but long windows over heavy traffic can set both.
  core::SmashConfig smash;

  EpochId epoch_of(std::uint64_t time_s) const noexcept {
    return epoch_seconds == 0 ? 0 : time_s / epoch_seconds;
  }

  // Rejects nonsensical configurations (SMASH_CHECK — fatal in release
  // builds too): zero-length epochs, an empty window, durability with a
  // zero checkpoint cadence. Engine and ingestor constructors call this,
  // so a bad config can never reach the ingest path.
  void validate() const;
};

}  // namespace smash::stream
