// Window preprocessing for the streaming engine, from per-epoch caches.
//
// Preprocessing (core/preprocess.h) walks every request of a trace: it
// parses the URI file and parameter pattern, maps hostnames and referrers
// to effective 2LDs, and interns strings. The streaming engine does that
// once per epoch, at seal time: each shard caches
// `AggregatedTrace::build(shard_trace)` in the shard's own id space.
// `merge_shard_pres` then assembles a window `PreprocessResult` from the
// cached shards in time proportional to the number of *distinct* entities
// per shard (servers, clients, files, ...), never re-touching requests.
//
// The merge is byte-identical to `preprocess(assembled_window_trace)`:
// window interner ids are assigned by first appearance across shards in
// epoch order, exactly as journal-replay window assembly would assign
// them, and 2LD aggregation follows the same raw-interner order as
// `AggregatedTrace::build`. tests/preshard_test.cc enforces the deep
// equality; the stream/batch equivalence suite rests on it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/preprocess.h"
#include "core/smash_config.h"
#include "net/trace.h"
#include "util/interner.h"

namespace smash::core {

// Order-independent content hash of one shard's cache. Recovery rebuilds
// each checkpointed shard's AggregatedTrace from its deserialized trace and
// cross-checks this fingerprint against the one recorded at checkpoint
// time; a mismatch means the rebuild diverged from the pre-crash cache.
// Unordered containers contribute commutatively (summed element hashes),
// so the value is stable across hash-table iteration orders.
std::uint64_t shard_pre_fingerprint(const AggregatedTrace& pre);

// One shard's inputs to the merge: its trace (for interner name lists and
// redirect state) plus its cached AggregatedTrace.
struct ShardPreRef {
  const net::Trace* trace = nullptr;
  const AggregatedTrace* pre = nullptr;
};

// A window's preprocessed state assembled from cached shards. `pre` feeds
// SmashPipeline::run_preprocessed; `ips` is the window IP interner the
// profile `ips` id-sets resolve against (what `assembled_trace.ips()`
// would have been), which the snapshot needs to name flagged IPs.
struct WindowPre {
  PreprocessResult pre;
  util::Interner ips;
};

// Merges cached shards (window order: oldest epoch first) into the window's
// PreprocessResult, byte-identical to `preprocess(assembled_window,
// config)`. Cost is proportional to distinct entities per shard, not
// requests. The profile-merge phase is parallelized by window-2LD interner
// range across config.num_threads workers (interning itself is inherently
// sequential and stays serial); output is byte-identical for every thread
// count, per-profile fold order included.
WindowPre merge_shard_pres(const std::vector<ShardPreRef>& shards,
                           const SmashConfig& config);

}  // namespace smash::core
