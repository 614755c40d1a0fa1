// Sparse similarity join via inverted indexing.
//
// The paper notes (§VI, Overhead) that naive pairwise similarity is O(N^2)
// and points to sparse matrix multiplication as the fix. The equivalent
// index-based formulation: for item i with key set K_i, the co-occurrence
// count |K_i ∩ K_j| for every j sharing at least one key is obtained by
// walking key -> item postings lists. Pairs sharing no key (similarity 0
// under eqs. 1/8) are never materialized.
//
// Implementation notes: the index is a flat CSR postings buffer (offsets +
// one contiguous entry array, no per-key vectors) and pair counting uses a
// probe-side dense scoring array with a touched list instead of a hash map
// keyed by packed pairs. Output is produced already grouped by `a` in
// ascending (a, b) order, so no final sort is needed and results are
// byte-identical across runs.
//
// One kernel, cooccurrence_join_sharded, runs every join: a loop over the
// planned key ranges (one range unless a memory budget forces more), each
// probed in contiguous item shards across the worker threads.
// cooccurrence_join and cooccurrence_join_parallel are the unbounded
// special cases of it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/id_set.h"

namespace smash::graph {

struct CooccurrencePair {
  std::uint32_t a = 0;  // a < b
  std::uint32_t b = 0;
  std::uint32_t shared_keys = 0;  // |K_a ∩ K_b|

  friend bool operator==(const CooccurrencePair&, const CooccurrencePair&) = default;
};

struct JoinOptions {
  // Postings lists longer than this (unit: items per key; default 20000)
  // are skipped when enumerating pairs: a key shared by k items contributes
  // k(k-1)/2 pairs, so one pathological key (e.g. a crawler client
  // contacting everything) can blow up the join.
  //
  // NOTE: skipping a key UNDERCOUNTS shared_keys for the affected pairs;
  // SMASH's preprocessing (IDF filter) is responsible for removing such
  // hubs beforehand, and the default cap is high enough to be inert on
  // realistic inputs. It exists as a safety valve only — it is a *pair
  // explosion* guard, not a memory guard; for memory, use the key-range
  // sharded join below. JoinStats reports how often it fired so the
  // undercount is observable instead of silent. A key's length is always
  // its full postings length, so the cap fires identically at every thread
  // count and memory budget.
  std::uint32_t max_postings_length = 20000;
};

// Observability counters for one join invocation. All counters except
// `shard_passes` and `peak_resident_postings_bytes` are invariant across
// thread counts and memory budgets (every key is indexed and probed
// exactly once in every pass plan).
struct JoinStats {
  std::size_t num_keys = 0;              // distinct keys indexed
  std::size_t postings_entries = 0;      // total (key, item) entries
  std::size_t peak_postings_length = 0;  // longest postings list, incl. skipped
  std::size_t skipped_keys = 0;          // keys over max_postings_length
  std::size_t skipped_entries = 0;       // postings entries under skipped keys
  std::size_t candidate_pairs = 0;       // counter increments performed
  std::size_t emitted_pairs = 0;         // pairs meeting min_shared
  // Key-range passes this join ran: 1 = a single in-RAM postings index
  // (no budget, a budget large enough for one pass, or an input with no
  // keys); > 1 = a memory budget made the join rebuild the index that
  // many times. 0 only in a default-constructed JoinStats (no join ran).
  std::size_t shard_passes = 0;
  // Largest postings-index footprint (bytes: offsets + build cursor +
  // entries) resident at any moment: the biggest single pass, <= the
  // memory budget unless one key alone exceeds it (degenerate case — the
  // key still gets a pass of its own, and the overshoot is visible here).
  std::size_t peak_resident_postings_bytes = 0;

  friend bool operator==(const JoinStats&, const JoinStats&) = default;
};

// items[i] is the (normalized) key set of item i. Returns every pair with
// shared_keys >= min_shared, each pair exactly once with a < b, sorted by
// (a, b). Deterministic: identical inputs yield identical outputs. When
// `stats` is non-null it is overwritten with this invocation's counters.
// Serial and unbounded: cooccurrence_join_sharded with budget 0 and one
// thread.
std::vector<CooccurrencePair> cooccurrence_join(
    std::span<const util::IdSet> items, std::uint32_t min_shared = 1,
    const JoinOptions& options = {}, JoinStats* stats = nullptr);

// Unbounded join probed across up to `num_threads` worker threads:
// cooccurrence_join_sharded with budget 0. Output is identical to the
// serial form. The full postings index is resident
// (JoinStats::shard_passes == 1) plus one dense counter array of
// 4 * items.size() bytes per worker.
std::vector<CooccurrencePair> cooccurrence_join_parallel(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options, unsigned num_threads,
    JoinStats* stats = nullptr);

// One contiguous key range of a bounded-memory join plan: keys in
// [begin, end) build one postings index of `bytes` resident bytes.
struct KeyShardRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;       // exclusive
  std::size_t bytes = 0;       // postings-index footprint of this range
  std::size_t entries = 0;     // (key, item) entries in this range

  friend bool operator==(const KeyShardRange&, const KeyShardRange&) = default;
};

// Plan for a bounded-memory join: contiguous key ranges covering
// [0, max_key], each sized to fit `memory_budget_bytes` of postings-index
// memory. Greedy first-fit over observed per-key cardinalities; a single
// key whose postings alone exceed the budget gets a range of its own (the
// join still completes exactly — the overshoot is reported, never hidden).
struct KeyShardPlan {
  std::vector<KeyShardRange> ranges;  // ascending, disjoint, covering
  std::size_t peak_bytes = 0;         // max range bytes (resident high-water)
  std::size_t total_bytes = 0;        // single in-RAM pass footprint
};

// Postings-index footprint of `num_keys` keys holding `num_entries`
// (key, item) entries: offsets + build cursor (one size_t each per key)
// plus the entry array. This is the formula both the planner and
// JoinStats::peak_resident_postings_bytes use.
constexpr std::size_t postings_bytes(std::size_t num_keys,
                                     std::size_t num_entries) noexcept {
  return (num_keys + 1) * sizeof(std::size_t) +
         num_keys * sizeof(std::size_t) +
         num_entries * sizeof(std::uint32_t);
}

// Computes the key-range plan for `items` under `memory_budget_bytes`
// (unit: bytes; 0 = unbounded, single range). Deterministic; exposed so
// callers and tests can inspect shard counts before running the join.
KeyShardPlan plan_key_shards(std::span<const util::IdSet> items,
                             std::size_t memory_budget_bytes);

// The join kernel: runs the CSR build + dense-counter probe once per
// planned key range (passes run sequentially, so at most one range's
// postings index is resident), then merges the per-pass grouped outputs in
// (a, b) order, summing partial shared-key counts. Output is byte-identical
// for every budget and thread count. With one range (memory_budget_bytes
// == 0, or a budget the whole index fits in) min_shared filters inside the
// probe; with several it is applied after the merge, so pairs whose shared
// keys span ranges are never lost. Within each pass the probe is split
// into contiguous item ranges across up to `num_threads` workers (inputs
// under 256 items per worker use fewer). Peak resident postings memory is
// reported in JoinStats::peak_resident_postings_bytes; it exceeds the
// budget only when one key alone does (degenerate case).
std::vector<CooccurrencePair> cooccurrence_join_sharded(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options, std::size_t memory_budget_bytes,
    unsigned num_threads, JoinStats* stats = nullptr);

// The original hash-map-based join (packed-pair unordered_map), retained as
// the test oracle of JoinEquivalenceTest.* (tests/join_scratch_test.cc).
// Same contract and output order as cooccurrence_join.
std::vector<CooccurrencePair> cooccurrence_join_reference(
    std::span<const util::IdSet> items, std::uint32_t min_shared = 1,
    const JoinOptions& options = {});

// The bidirectional-importance similarity form shared by the paper's main
// (eq. 1) and IP (eq. 8) dimensions:
//   sim = (shared/|K_a|) * (shared/|K_b|)
double bidirectional_similarity(std::uint32_t shared, std::size_t size_a,
                                std::size_t size_b);

}  // namespace smash::graph
