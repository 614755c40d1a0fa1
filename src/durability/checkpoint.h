// Periodic checkpoints of sealed-epoch engine state, so recovery replays
// only the WAL tail written after the newest valid checkpoint instead of
// the whole window's worth of segments.
//
// A checkpoint is one atomically-installed blob (written to ckpt.tmp,
// fsynced per policy, renamed into place):
//
//   [magic "SMCK"][u32 version][u32 crc32c(body)][u32 body_len][body]
//
// The body carries the full single-writer engine state at an exact WAL
// position: config fingerprint, epoch-close counter, ingest counters, the
// window's sealed shard traces (journal-order serialized, net::Trace
// binary events), the *open* shard's trace (the event that seals an epoch
// lands in the next epoch's segment before the checkpoint is taken, so the
// open shard is part of the state), the per-2LD window aggregates (sorted;
// recovery rebuilds them from the shards and cross-checks this list), and
// per-shard fingerprints of each shard's cached AggregatedTrace (recovery
// rebuilds it deterministically from the shard trace and cross-checks —
// core::shard_pre_fingerprint).
//
// replay_segment/replay_offset are the WAL position the state corresponds
// to: recovery loads the newest CRC-valid checkpoint, then replays records
// from exactly there. A checkpoint that fails its CRC (or was torn before
// the rename) is skipped in favor of the previous one + its longer tail —
// the WAL, not the checkpoint, is the source of truth.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "durability/options.h"
#include "stream/ingest.h"

namespace smash::durability {

struct CheckpointShard {
  stream::EpochId epoch = 0;
  // core::shard_pre_fingerprint of the sealed shard's preprocessed cache.
  std::uint64_t pre_fingerprint = 0;
  // net::Trace::serialize_events of the shard trace.
  std::string trace_bytes;
};

struct CheckpointAggregate {
  std::string host_2ld;
  std::uint64_t requests = 0;
  std::uint64_t error_requests = 0;
  std::uint32_t active_epochs = 0;
};

struct CheckpointState {
  // Config fingerprint: recovery refuses a checkpoint taken under a
  // different epoch geometry (the WAL tail would be re-bucketed).
  std::uint32_t epoch_seconds = 0;
  std::uint32_t window_epochs = 0;
  bool drop_late_events = true;

  // Engine counters.
  std::uint64_t closes_total = 0;
  // Records ever appended to the WAL when this state was captured (events
  // + seal markers); recovery adds its replayed-tail count to this so the
  // corruption fuzzer can map recovered state back to a schedule prefix.
  std::uint64_t records_logged = 0;

  // Ingestor position.
  bool started = false;
  stream::EpochId open_epoch = 0;
  stream::IngestStats ingest_stats{};

  // WAL position the state corresponds to.
  std::uint64_t replay_segment = 1;
  std::uint64_t replay_offset = 0;

  // Sealed window, oldest epoch first, then the open shard's trace.
  std::vector<CheckpointShard> window;
  std::string open_trace_bytes;

  // Cross-check copy of WindowAggregates, sorted by 2LD.
  std::uint64_t window_requests = 0;
  std::vector<CheckpointAggregate> aggregates;
};

// ckpt-<closes>-<replay_segment>.bin; both fields zero-padded so lexical
// sort = (closes, segment) sort, and pruning can pick replay floors without
// opening files.
std::string checkpoint_file_name(std::uint64_t closes, std::uint64_t replay_segment);
struct CheckpointFileName {
  std::uint64_t closes = 0;
  std::uint64_t replay_segment = 0;
};
std::optional<CheckpointFileName> parse_checkpoint_file_name(std::string_view name);

std::string encode_checkpoint(const CheckpointState& state);
// nullopt on any framing/CRC/decode violation (a torn or tampered file).
std::optional<CheckpointState> decode_checkpoint(std::string_view bytes);

// Atomic install: ckpt.tmp -> write -> fsync (policy != kOff) -> rename ->
// dir fsync. Failpoint sites: "ckpt.write", "ckpt.fsync", "ckpt.rename".
void write_checkpoint_file(const std::string& dir, const CheckpointState& state,
                           FsyncPolicy policy);

}  // namespace smash::durability
