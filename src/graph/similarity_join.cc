#include "graph/similarity_join.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "util/thread_pool.h"

namespace smash::graph {

namespace {

// Flat CSR inverted index over the key range [key_base, key_base +
// num_keys): postings of key k are entries[offsets[k - key_base] ..
// offsets[k - key_base + 1]), in ascending item order (guaranteed by the
// counting-sort build iterating items in order). The join builds one
// index per planned key range; key_base is 0 for the first (or only) one.
struct PostingsIndex {
  std::vector<std::size_t> offsets;     // size num_keys + 1
  std::vector<std::uint32_t> entries;   // item ids
  std::uint32_t key_base = 0;           // first key this index covers
  std::uint32_t num_keys = 0;           // keys covered

  std::size_t offset(std::uint32_t key) const {
    return offsets[key - key_base];
  }
  std::size_t length(std::uint32_t key) const {
    return offsets[key - key_base + 1] - offsets[key - key_base];
  }
};

void validate_normalized(std::span<const util::IdSet> items) {
  for (const auto& item : items) {
    if (!item.is_normalized()) {
      throw std::invalid_argument("cooccurrence_join: IdSet not normalized");
    }
  }
}

// Postings index covering only keys in [key_begin, key_end). Inputs must
// already be validated as normalized. The resident footprint of the
// returned index (offsets + build cursor + entries) is exactly
// postings_bytes(key_end - key_begin, entries in range) — the quantity
// plan_key_shards budgets for.
PostingsIndex build_postings_range(std::span<const util::IdSet> items,
                                   std::uint32_t key_begin,
                                   std::uint32_t key_end) {
  PostingsIndex index;
  index.key_base = key_begin;
  index.num_keys = key_end - key_begin;

  index.offsets.assign(index.num_keys + std::size_t{1}, 0);
  for (const auto& item : items) {
    const auto& keys = item.values();
    auto it = std::lower_bound(keys.begin(), keys.end(), key_begin);
    for (; it != keys.end() && *it < key_end; ++it) {
      ++index.offsets[*it - key_begin + 1];
    }
  }
  for (std::uint32_t k = 0; k < index.num_keys; ++k) {
    index.offsets[k + 1] += index.offsets[k];
  }

  index.entries.resize(index.offsets[index.num_keys]);
  std::vector<std::size_t> cursor(index.offsets.begin(),
                                  index.offsets.end() - 1);
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    const auto& keys = items[i].values();
    auto it = std::lower_bound(keys.begin(), keys.end(), key_begin);
    for (; it != keys.end() && *it < key_end; ++it) {
      index.entries[cursor[*it - key_begin]++] = i;
    }
  }
  return index;
}

// Counts co-occurrences for probe items in [a_begin, a_end) against one
// key range's postings index, appending (a, b, count) triples grouped by
// `a` in ascending (a, b) order. `counts` must be all-zero on entry and of
// size >= items.size(); it is restored to all-zero on exit.
void count_probe_range(std::span<const util::IdSet> items,
                       const PostingsIndex& index, std::uint32_t a_begin,
                       std::uint32_t a_end, std::uint32_t min_shared,
                       std::uint32_t max_postings_length,
                       std::vector<std::uint32_t>& counts,
                       std::vector<std::uint32_t>& touched,
                       std::vector<CooccurrencePair>& out,
                       std::size_t& candidate_pairs) {
  const std::uint32_t key_lo = index.key_base;
  const std::uint32_t key_hi = index.key_base + index.num_keys;
  for (std::uint32_t a = a_begin; a < a_end; ++a) {
    touched.clear();
    const auto& keys = items[a].values();
    auto kit = key_lo == 0
                   ? keys.begin()
                   : std::lower_bound(keys.begin(), keys.end(), key_lo);
    for (; kit != keys.end() && *kit < key_hi; ++kit) {
      const std::uint32_t key = *kit;
      const std::size_t len = index.length(key);
      if (len < 2 || len > max_postings_length) continue;
      const auto* begin = index.entries.data() + index.offset(key);
      const auto* end = begin + len;
      // Postings are ascending, so everything after `a` pairs with it.
      const auto* it = std::upper_bound(begin, end, a);
      candidate_pairs += static_cast<std::size_t>(end - it);
      for (; it != end; ++it) {
        const std::uint32_t b = *it;
        // Edge weights into the scoring array; 0 means "untouched" (a key
        // contributes exactly 1, so a touched slot is always >= 1).
        if (counts[b]++ == 0) touched.push_back(b);
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::uint32_t b : touched) {
      if (counts[b] >= min_shared) out.push_back({a, b, counts[b]});
      counts[b] = 0;
    }
  }
}

// Accumulates (does not reset) key counters so a multi-pass join sums
// them across passes; every key lives in exactly one pass, so the totals
// do not depend on the pass count.
void fill_key_stats(const PostingsIndex& index,
                    std::uint32_t max_postings_length, JoinStats& stats) {
  stats.postings_entries += index.entries.size();
  for (std::uint32_t k = 0; k < index.num_keys; ++k) {
    const std::size_t len = index.offsets[k + 1] - index.offsets[k];
    if (len == 0) continue;
    ++stats.num_keys;
    stats.peak_postings_length = std::max(stats.peak_postings_length, len);
    if (len > max_postings_length) {
      ++stats.skipped_keys;
      stats.skipped_entries += len;
    }
  }
}

}  // namespace

std::vector<CooccurrencePair> cooccurrence_join(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options, JoinStats* stats) {
  return cooccurrence_join_sharded(items, min_shared, options, 0, 1, stats);
}

std::vector<CooccurrencePair> cooccurrence_join_parallel(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options, unsigned num_threads, JoinStats* stats) {
  return cooccurrence_join_sharded(items, min_shared, options, 0, num_threads,
                                   stats);
}

KeyShardPlan plan_key_shards(std::span<const util::IdSet> items,
                             std::size_t memory_budget_bytes) {
  std::uint32_t max_key = 0;
  bool any_key = false;
  std::size_t total_entries = 0;
  for (const auto& item : items) {
    if (!item.empty()) {
      any_key = true;
      max_key = std::max(max_key, item.values().back());
      total_entries += item.size();
    }
  }
  const std::uint32_t num_keys = any_key ? max_key + 1 : 0;

  KeyShardPlan plan;
  plan.total_bytes = postings_bytes(num_keys, total_entries);
  if (num_keys == 0) return plan;
  if (memory_budget_bytes == 0 || plan.total_bytes <= memory_budget_bytes) {
    plan.ranges.push_back({0, num_keys, plan.total_bytes, total_entries});
    plan.peak_bytes = plan.total_bytes;
    return plan;
  }

  // Observed per-key cardinalities drive the plan: each key costs two
  // size_t slots (offset + build cursor) plus 4 bytes per posting entry.
  std::vector<std::uint32_t> key_len(num_keys, 0);
  for (const auto& item : items) {
    for (auto key : item) ++key_len[key];
  }

  constexpr std::size_t kRangeBaseBytes = postings_bytes(0, 0);
  constexpr std::size_t kPerKeyBytes = 2 * sizeof(std::size_t);
  std::uint32_t begin = 0;
  std::size_t bytes = kRangeBaseBytes;
  std::size_t entries = 0;
  for (std::uint32_t k = 0; k < num_keys; ++k) {
    const std::size_t add =
        kPerKeyBytes + key_len[k] * std::size_t{sizeof(std::uint32_t)};
    // Cut before a key that would overflow the budget — unless the range
    // is still empty, in which case the key is over budget all by itself
    // and gets a (reported) oversized range of its own.
    if (k > begin && bytes + add > memory_budget_bytes) {
      plan.ranges.push_back({begin, k, bytes, entries});
      begin = k;
      bytes = kRangeBaseBytes;
      entries = 0;
    }
    bytes += add;
    entries += key_len[k];
  }
  plan.ranges.push_back({begin, num_keys, bytes, entries});
  for (const auto& range : plan.ranges) {
    plan.peak_bytes = std::max(plan.peak_bytes, range.bytes);
  }
  return plan;
}

namespace {

constexpr std::uint64_t pack_pair(const CooccurrencePair& pair) noexcept {
  return (static_cast<std::uint64_t>(pair.a) << 32) | pair.b;
}

// Merges two (a, b)-sorted partial-count runs, summing the counts of pairs
// present in both.
std::vector<CooccurrencePair> merge_partials(std::vector<CooccurrencePair> x,
                                             std::vector<CooccurrencePair> y) {
  std::vector<CooccurrencePair> out;
  out.reserve(x.size() + y.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const auto kx = pack_pair(x[i]);
    const auto ky = pack_pair(y[j]);
    if (kx < ky) {
      out.push_back(x[i++]);
    } else if (ky < kx) {
      out.push_back(y[j++]);
    } else {
      out.push_back({x[i].a, x[i].b, x[i].shared_keys + y[j].shared_keys});
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), x.begin() + static_cast<std::ptrdiff_t>(i), x.end());
  out.insert(out.end(), y.begin() + static_cast<std::ptrdiff_t>(j), y.end());
  return out;
}

}  // namespace

std::vector<CooccurrencePair> cooccurrence_join_sharded(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options, std::size_t memory_budget_bytes,
    unsigned num_threads, JoinStats* stats) {
  if (min_shared == 0) {
    throw std::invalid_argument("cooccurrence_join: min_shared must be >= 1");
  }
  validate_normalized(items);
  const KeyShardPlan plan = plan_key_shards(items, memory_budget_bytes);

  // An input with no keys still counts as one pass over an empty index.
  JoinStats local;
  local.shard_passes = std::max<std::size_t>(plan.ranges.size(), 1);
  local.peak_resident_postings_bytes =
      plan.ranges.empty() ? plan.total_bytes : plan.peak_bytes;
  if (plan.ranges.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }

  const std::size_t n = items.size();
  // The probe is split into contiguous item ranges across the threads;
  // key-range passes run one after another, so at most one range's
  // postings index is ever resident.
  constexpr std::size_t kMinItemsPerShard = 256;
  unsigned probe_shards = num_threads == 0 ? 1 : num_threads;
  probe_shards = static_cast<unsigned>(std::min<std::size_t>(
      probe_shards, std::max<std::size_t>(n / kMinItemsPerShard, 1)));

  // parallel_for drains on the calling thread too, so size the pool one
  // short of the shard count (mirrors core/dimensions.cc).
  std::optional<util::ThreadPool> pool;
  if (probe_shards > 1) pool.emplace(probe_shards - 1);

  // Probe scratch is allocated once and reused across passes
  // (count_probe_range restores counts to all-zero on exit).
  std::vector<std::vector<std::uint32_t>> counts(
      probe_shards, std::vector<std::uint32_t>(n, 0));
  std::vector<std::vector<std::uint32_t>> touched(probe_shards);

  // A single pass sees every key, so its counts are final and min_shared
  // filters inside the probe. Counts of one pass among several are
  // partial: every touched pair is kept and the filter runs after the
  // merge, so pairs whose shared keys span ranges are never lost.
  const std::uint32_t probe_min_shared =
      plan.ranges.size() == 1 ? min_shared : 1;

  std::vector<std::vector<CooccurrencePair>> pass_out;
  pass_out.reserve(plan.ranges.size());
  for (const auto& range : plan.ranges) {
    const PostingsIndex index =
        build_postings_range(items, range.begin, range.end);
    fill_key_stats(index, options.max_postings_length, local);

    std::vector<std::vector<CooccurrencePair>> shard_out(probe_shards);
    std::vector<std::size_t> shard_candidates(probe_shards, 0);
    const auto probe = [&](std::size_t s) {
      const auto lo = static_cast<std::uint32_t>(n * s / probe_shards);
      const auto hi = static_cast<std::uint32_t>(n * (s + 1) / probe_shards);
      count_probe_range(items, index, lo, hi, probe_min_shared,
                        options.max_postings_length, counts[s], touched[s],
                        shard_out[s], shard_candidates[s]);
    };
    if (probe_shards > 1) {
      util::parallel_for(*pool, probe_shards, probe);
    } else {
      probe(0);
    }
    for (const auto c : shard_candidates) local.candidate_pairs += c;

    // Shards are contiguous ascending probe ranges, so concatenation keeps
    // the pass grouped in (a, b) order.
    if (probe_shards == 1) {
      pass_out.push_back(std::move(shard_out.front()));
      continue;
    }
    std::vector<CooccurrencePair> merged_pass;
    std::size_t total = 0;
    for (const auto& part : shard_out) total += part.size();
    merged_pass.reserve(total);
    for (auto& part : shard_out) {
      merged_pass.insert(merged_pass.end(), part.begin(), part.end());
    }
    pass_out.push_back(std::move(merged_pass));
  }

  // Balanced merge tree over the per-pass sorted runs: O(pairs * log S)
  // instead of the O(pairs * S) of a naive S-way scan.
  while (pass_out.size() > 1) {
    std::vector<std::vector<CooccurrencePair>> next;
    next.reserve((pass_out.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < pass_out.size(); i += 2) {
      next.push_back(
          merge_partials(std::move(pass_out[i]), std::move(pass_out[i + 1])));
    }
    if (pass_out.size() % 2 == 1) next.push_back(std::move(pass_out.back()));
    pass_out = std::move(next);
  }

  std::vector<CooccurrencePair> out = std::move(pass_out.front());
  if (probe_min_shared < min_shared) {
    std::erase_if(out, [min_shared](const CooccurrencePair& pair) {
      return pair.shared_keys < min_shared;
    });
  }
  local.emitted_pairs = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<CooccurrencePair> cooccurrence_join_reference(
    std::span<const util::IdSet> items, std::uint32_t min_shared,
    const JoinOptions& options) {
  if (min_shared == 0) {
    throw std::invalid_argument("cooccurrence_join: min_shared must be >= 1");
  }

  // Inverted index: key -> items containing it, in ascending item order
  // (guaranteed by iterating items in order).
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> postings;
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_normalized()) {
      throw std::invalid_argument("cooccurrence_join: IdSet not normalized");
    }
    for (auto key : items[i]) postings[key].push_back(i);
  }

  // Count co-occurrences per pair. Key: packed (a<<32)|b with a < b.
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (const auto& [key, list] : postings) {
    (void)key;
    if (list.size() < 2 || list.size() > options.max_postings_length) continue;
    for (std::size_t x = 0; x < list.size(); ++x) {
      for (std::size_t y = x + 1; y < list.size(); ++y) {
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(list[x]) << 32) | list[y];
        ++counts[packed];
      }
    }
  }

  std::vector<CooccurrencePair> out;
  out.reserve(counts.size());
  for (const auto& [packed, count] : counts) {
    if (count < min_shared) continue;
    out.push_back({static_cast<std::uint32_t>(packed >> 32),
                   static_cast<std::uint32_t>(packed & 0xffffffffu), count});
  }
  std::sort(out.begin(), out.end(), [](const auto& p, const auto& q) {
    return p.a != q.a ? p.a < q.a : p.b < q.b;
  });
  return out;
}

double bidirectional_similarity(std::uint32_t shared, std::size_t size_a,
                                std::size_t size_b) {
  if (size_a == 0 || size_b == 0) return 0.0;
  const double s = static_cast<double>(shared);
  return (s / static_cast<double>(size_a)) * (s / static_cast<double>(size_b));
}

}  // namespace smash::graph
