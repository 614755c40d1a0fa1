// Streaming ingest: timestamped events are parsed once into per-epoch
// Trace shards; a ring of the last W closed shards forms the sliding
// window, and per-2LD window aggregates are maintained incrementally
// (epoch deltas added on close, subtracted on eviction) so sliding the
// window never re-parses or re-scans old epochs.
//
// Shard traces are journaled (net::Trace::enable_journal), so window
// assembly replays events in exact arrival order: the assembled window
// trace is byte-identical to a batch trace built from the same event
// stream, which is what makes the streaming engine's output provably equal
// to a batch SmashPipeline::run over the same window.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/preprocess.h"
#include "net/http.h"
#include "net/trace.h"
#include "stream/stream_config.h"
#include "util/strings.h"

namespace smash::stream {

// --- timestamped edge events -------------------------------------------------

struct RequestEvent {
  std::uint64_t time_s = 0;  // seconds since the stream origin
  std::string client;
  std::string host;
  std::string path;
  std::string user_agent;
  std::string referrer;
  net::Method method = net::Method::kGet;
  std::uint16_t status = 200;

  bool operator==(const RequestEvent&) const = default;
};

struct ResolutionEvent {
  std::uint64_t time_s = 0;
  std::string host;
  std::string ip;

  bool operator==(const ResolutionEvent&) const = default;
};

struct RedirectEvent {
  std::uint64_t time_s = 0;
  std::string from;
  std::string to;

  bool operator==(const RedirectEvent&) const = default;
};

// --- per-epoch shard ---------------------------------------------------------

// Per-2LD counters accumulated over the sliding window.
struct ServerWindowStats {
  std::uint64_t requests = 0;
  std::uint64_t error_requests = 0;  // 4xx/5xx
  std::uint32_t active_epochs = 0;   // window epochs with >= 1 request

  bool empty() const noexcept {
    return requests == 0 && error_requests == 0 && active_epochs == 0;
  }
};

// One epoch's worth of traffic, parsed exactly once at ingest time. The
// trace is journaled and finalized when the epoch is sealed; sealing also
// caches the shard's AggregatedTrace (core/preshard.h), which both the
// window aggregates and every re-mine read, so window slides and re-mines
// never touch the requests again. A sealed shard is immutable: the window
// ring and any in-flight mining task share it by shared_ptr.
class EpochShard {
 public:
  explicit EpochShard(EpochId id = 0);

  // Recovery: rebuilds a sealed shard from a deserialized journaled trace,
  // sealing it exactly as the original seal did (finalize, AggregatedTrace
  // rebuild) — deterministic functions of the trace.
  static EpochShard restore_sealed(EpochId id, net::Trace trace);
  // Recovery: rebuilds the open (unsealed) shard from its checkpointed
  // trace; WAL-tail replay appends to it.
  static EpochShard restore_open(EpochId id, net::Trace trace);

  EpochId id() const noexcept { return id_; }
  const net::Trace& trace() const noexcept { return trace_; }
  std::size_t num_requests() const noexcept { return trace_.num_requests(); }
  bool empty() const noexcept { return trace_.num_requests() == 0; }

  // Cached AggregatedTrace::build(trace()) (valid after seal): its
  // profiles are this epoch's per-2LD delta, and the mining path merges it
  // across the window instead of re-preprocessing the assembled trace.
  const core::AggregatedTrace& pre() const noexcept { return pre_; }

 private:
  friend class StreamIngestor;

  void add(const RequestEvent& event);
  void add(const ResolutionEvent& event);
  void add(const RedirectEvent& event);
  void seal();

  EpochId id_ = 0;
  net::Trace trace_;
  core::AggregatedTrace pre_;
  bool sealed_ = false;
};

// --- incrementally merged window aggregates ---------------------------------

// Sliding-window per-2LD aggregate maintained by adding the delta of each
// newly closed epoch and subtracting the delta of each evicted one — O(epoch)
// per slide, independent of window length. Removal enforces (SMASH_CHECK,
// fatal in release builds too) that the evicted delta never exceeds the
// accumulated value and erases entries whose stats drain to empty, so the
// map can never underflow into garbage verdict stats or leak evicted 2LDs.
class WindowAggregates {
 public:
  void add_epoch(const EpochShard& shard);
  void remove_epoch(const EpochShard& shard);

  // Stats for `host_2ld` over the current window, or nullptr if unseen.
  const ServerWindowStats* find(std::string_view host_2ld) const;

  std::size_t num_servers() const noexcept { return by_2ld_.size(); }
  std::uint64_t window_requests() const noexcept { return window_requests_; }

  // Every (2LD, stats) entry sorted by 2LD — the deterministic listing
  // checkpoints serialize and recovery cross-checks against.
  std::vector<std::pair<std::string, ServerWindowStats>> sorted_entries() const;

 private:
  util::StringMap<ServerWindowStats> by_2ld_;
  std::uint64_t window_requests_ = 0;
};

// --- ingestor ----------------------------------------------------------------

struct IngestStats {
  std::uint64_t requests = 0;
  std::uint64_t resolutions = 0;
  std::uint64_t redirects = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_folded = 0;  // late events folded into the open epoch
};

struct IngestResult {
  // Epochs sealed as a side effect of this event (the event belonged to a
  // later epoch than the one that was open). The engine re-mines when > 0.
  std::uint32_t epochs_closed = 0;
  bool accepted = true;  // false: late event dropped
};

// Buckets timestamped events into epoch shards and maintains the window
// ring plus its aggregates. Single-writer: one thread ingests; published
// snapshots (stream/engine.h) carry results to concurrent readers.
class StreamIngestor {
 public:
  explicit StreamIngestor(StreamConfig config);

  // Recovery: adopts a rebuilt position — `window` holds sealed shards
  // oldest-first, `open_shard` the unsealed epoch in progress. Aggregates
  // are rebuilt from the window shards (the caller cross-checks them
  // against the checkpointed copy).
  static StreamIngestor restore(StreamConfig config, bool started,
                                EpochId open_epoch, EpochShard open_shard,
                                std::deque<std::shared_ptr<const EpochShard>> window,
                                IngestStats stats);

  IngestResult ingest(const RequestEvent& event);
  IngestResult ingest(const ResolutionEvent& event);
  IngestResult ingest(const RedirectEvent& event);

  // Seals the open epoch into the window ring (evicting the shard that
  // falls out of the window) and opens the next epoch. No-op before the
  // first event.
  void close_epoch();

  bool has_open_epoch() const noexcept { return started_; }
  EpochId open_epoch() const noexcept { return open_epoch_; }
  bool open_epoch_empty() const noexcept { return open_shard_.empty(); }
  // The unsealed epoch in progress (checkpoints serialize its trace).
  const EpochShard& open_shard() const noexcept { return open_shard_; }

  // Closed shards currently in the window, oldest first (at most
  // config.window_epochs of them; empty epochs included). Shards are
  // immutable once sealed and shared by pointer, so an off-thread mining
  // task keeps its window alive across evictions.
  const std::deque<std::shared_ptr<const EpochShard>>& window() const noexcept {
    return window_;
  }

  const WindowAggregates& aggregates() const noexcept { return aggregates_; }
  const IngestStats& stats() const noexcept { return stats_; }
  const StreamConfig& config() const noexcept { return config_; }

  // Merges the window's closed shards into one analyzable trace, replaying
  // each shard's journal so arrival order (and therefore interner id
  // assignment) matches a batch trace built from the same events. The
  // returned trace is finalized.
  net::Trace assemble_window() const;

 private:
  // Seals epochs until `epoch` is the open one. Returns epochs closed.
  std::uint32_t advance_to(EpochId epoch);
  // Shared prologue: opens the first epoch, advances past closed epochs,
  // classifies late events. accepted == false means drop the event.
  IngestResult position(std::uint64_t time_s);

  StreamConfig config_;
  bool started_ = false;
  EpochId open_epoch_ = 0;
  EpochShard open_shard_;
  std::deque<std::shared_ptr<const EpochShard>> window_;
  WindowAggregates aggregates_;
  IngestStats stats_;
};

}  // namespace smash::stream
