// Shard-mergeable preprocessed state for the streaming engine.
//
// Batch preprocessing (core/preprocess.h) walks every request of the window
// trace: it parses the URI file and parameter pattern, maps hostnames and
// referrers to effective 2LDs, and interns strings — per request, per
// window, on every epoch close. `ShardPre` caches that per-request work
// once, at epoch seal time, in the shard's own id space;
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
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/preprocess.h"
#include "core/smash_config.h"
#include "net/trace.h"
#include "util/id_set.h"
#include "util/interner.h"

namespace smash::core {

// Per-2LD contribution of one epoch shard, in shard-local id space.
// Client/ip ids are the shard trace's interner ids; file ids index
// ShardPre::file_names; referrer_counts keys index ShardPre::referrer_2lds.
struct ShardServerDelta {
  util::IdSet clients;
  util::IdSet ips;
  util::IdSet days;
  util::IdSet files;
  std::unordered_set<std::string> user_agents;
  std::unordered_set<std::string> param_patterns;
  std::unordered_map<std::uint32_t, std::uint32_t> referrer_counts;
  std::uint32_t requests = 0;
  std::uint32_t error_requests = 0;
};

// Everything expensive about preprocessing one shard, computed exactly once
// when the epoch is sealed. Name lists are ordered by first appearance so
// the merge can rebuild window interners deterministically.
struct ShardPre {
  // Effective 2LD of every shard server id (parallel to the shard trace's
  // server interner).
  std::vector<std::string> server_2lds;
  // Shard server id -> index into delta_2lds / deltas.
  std::vector<std::uint32_t> delta_of_server;
  // Distinct 2LDs, in shard-server-id order, and their deltas.
  std::vector<std::string> delta_2lds;
  std::vector<ShardServerDelta> deltas;
  // Distinct URI files, in request (first-appearance) order.
  std::vector<std::string> file_names;
  // Distinct referrer 2LDs, in request (first-appearance) order.
  std::vector<std::string> referrer_2lds;
};

// Builds the cached preprocessed form of one finalized shard trace.
// O(shard requests); this is the only place per-request parsing happens.
ShardPre build_shard_pre(const net::Trace& shard);

// Order-independent content hash of a ShardPre. Recovery rebuilds each
// checkpointed shard's ShardPre from its deserialized trace and
// cross-checks this fingerprint against the one recorded at checkpoint
// time; a mismatch means the rebuild diverged from the pre-crash cache.
// Unordered containers contribute commutatively (summed element hashes),
// so the value is stable across hash-table iteration orders.
std::uint64_t shard_pre_fingerprint(const ShardPre& pre);

// One shard's inputs to the merge: its trace (for interner name lists and
// resolution/redirect state) plus its cached ShardPre.
struct ShardPreRef {
  const net::Trace* trace = nullptr;
  const ShardPre* pre = nullptr;
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
// requests. The delta-merge phase is parallelized by window-2LD interner
// range across config.num_threads workers (interning itself is inherently
// sequential and stays serial); output is byte-identical for every thread
// count, per-profile delta order included.
WindowPre merge_shard_pres(const std::vector<ShardPreRef>& shards,
                           const SmashConfig& config);

}  // namespace smash::core
