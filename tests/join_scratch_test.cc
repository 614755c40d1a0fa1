// Regression tests for the dense-counter join rewrite: determinism across
// runs, equivalence with the retained hash-map reference and with a
// brute-force O(N^2) intersection_size oracle, byte-identical parallel
// sharding, and JoinStats observability of the postings cap.
#include "graph/similarity_join.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace smash::graph {
namespace {

using util::IdSet;

std::vector<IdSet> random_items(std::uint32_t num_items,
                                std::uint32_t max_keys,
                                std::uint32_t key_space, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<IdSet> items(num_items);
  for (auto& item : items) {
    const auto count = rng.uniform(max_keys + 1);
    for (std::uint64_t i = 0; i < count; ++i) {
      item.insert(static_cast<std::uint32_t>(rng.uniform(key_space)));
    }
    item.normalize();
  }
  return items;
}

TEST(JoinDeterminism, RepeatedRunsAreIdentical) {
  const auto items = random_items(400, 12, 300, 0xfeedULL);
  const auto first = cooccurrence_join(items);
  const auto second = cooccurrence_join(items);
  EXPECT_EQ(first, second);  // element-wise, i.e. byte-identical content

  // And through the parallel path.
  const auto parallel_a = cooccurrence_join_parallel(items, 1, {}, 4);
  const auto parallel_b = cooccurrence_join_parallel(items, 1, {}, 4);
  EXPECT_EQ(parallel_a, parallel_b);
}

TEST(JoinDeterminism, GroupedByProbeAscending) {
  const auto items = random_items(300, 10, 200, 77);
  const auto pairs = cooccurrence_join(items);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i].a, pairs[i].b);
    if (i > 0) {
      EXPECT_TRUE(pairs[i - 1].a < pairs[i].a ||
                  (pairs[i - 1].a == pairs[i].a && pairs[i - 1].b < pairs[i].b));
    }
  }
}

class JoinEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JoinEquivalenceTest, DenseMatchesHashMapReference) {
  const auto items = random_items(250, 10, 180, GetParam());
  for (const std::uint32_t min_shared : {1u, 2u, 3u}) {
    EXPECT_EQ(cooccurrence_join(items, min_shared),
              cooccurrence_join_reference(items, min_shared));
  }
  // With a postings cap that actually fires.
  JoinOptions capped;
  capped.max_postings_length = 6;
  EXPECT_EQ(cooccurrence_join(items, 1, capped),
            cooccurrence_join_reference(items, 1, capped));
}

TEST_P(JoinEquivalenceTest, ParallelMatchesSerialExactly) {
  const auto items = random_items(1500, 8, 900, GetParam() ^ 0xabcdULL);
  JoinStats serial_stats;
  const auto serial = cooccurrence_join(items, 2, {}, &serial_stats);
  for (const unsigned threads : {2u, 3u, 4u, 7u}) {
    JoinStats parallel_stats;
    EXPECT_EQ(cooccurrence_join_parallel(items, 2, {}, threads, &parallel_stats),
              serial);
    // Counters too: shard candidate counts sum to the serial probe count.
    EXPECT_EQ(parallel_stats, serial_stats) << "threads=" << threads;
  }
}

TEST_P(JoinEquivalenceTest, MatchesBruteForceIntersection) {
  const auto items = random_items(120, 9, 100, GetParam() + 31);
  const auto pairs = cooccurrence_join(items);
  std::size_t expected_count = 0;
  auto it = pairs.begin();
  for (std::uint32_t a = 0; a < items.size(); ++a) {
    for (std::uint32_t b = a + 1; b < items.size(); ++b) {
      const auto shared =
          static_cast<std::uint32_t>(intersection_size(items[a], items[b]));
      if (shared == 0) continue;
      ++expected_count;
      ASSERT_NE(it, pairs.end());
      EXPECT_EQ(it->a, a);
      EXPECT_EQ(it->b, b);
      EXPECT_EQ(it->shared_keys, shared);
      ++it;
    }
  }
  EXPECT_EQ(pairs.size(), expected_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(JoinStatsTest, ReportsSkippedKeysAndPeakPostings) {
  // Key 7 is in all 6 items (hub); keys 100+i are singletons.
  std::vector<IdSet> items;
  for (std::uint32_t i = 0; i < 6; ++i) {
    items.emplace_back(std::vector<std::uint32_t>{7, 100 + i, 200});
  }
  JoinOptions options;
  options.max_postings_length = 4;
  JoinStats stats;
  const auto pairs = cooccurrence_join(items, 1, options, &stats);

  EXPECT_EQ(stats.num_keys, 8u);  // 7, 200, 100..105
  EXPECT_EQ(stats.peak_postings_length, 6u);  // both hubs have 6 entries
  EXPECT_EQ(stats.skipped_keys, 2u);          // keys 7 and 200 exceed the cap
  EXPECT_EQ(stats.skipped_entries, 12u);
  EXPECT_EQ(stats.postings_entries, 18u);
  EXPECT_EQ(stats.candidate_pairs, 0u);  // nothing under the cap co-occurs
  EXPECT_EQ(stats.emitted_pairs, 0u);
  EXPECT_TRUE(pairs.empty());

  // Without the cap every pair shares both hub keys.
  options.max_postings_length = 20000;
  const auto full = cooccurrence_join(items, 1, options, &stats);
  EXPECT_EQ(full.size(), 15u);  // C(6,2)
  EXPECT_EQ(stats.skipped_keys, 0u);
  EXPECT_EQ(stats.emitted_pairs, 15u);
  EXPECT_EQ(stats.candidate_pairs, 30u);  // 15 pairs x 2 shared hub keys
  for (const auto& pair : full) EXPECT_EQ(pair.shared_keys, 2u);
}

TEST(JoinStatsTest, ParallelStatsMatchSerial) {
  const auto items = random_items(1200, 8, 700, 555);
  JoinStats serial_stats;
  JoinStats parallel_stats;
  cooccurrence_join(items, 1, {}, &serial_stats);
  cooccurrence_join_parallel(items, 1, {}, 4, &parallel_stats);
  EXPECT_EQ(serial_stats, parallel_stats);
}

TEST(JoinEdgeCases, EmptyAndSingletonInputs) {
  EXPECT_TRUE(cooccurrence_join({}).empty());
  std::vector<IdSet> one;
  one.emplace_back(std::vector<std::uint32_t>{1, 2, 3});
  EXPECT_TRUE(cooccurrence_join(one).empty());
  std::vector<IdSet> empties(4);
  JoinStats stats;
  EXPECT_TRUE(cooccurrence_join(empties, 1, {}, &stats).empty());
  EXPECT_EQ(stats.num_keys, 0u);
  EXPECT_EQ(stats.postings_entries, 0u);

  // Every entry point agrees on degenerate inputs, pairs and stats alike.
  // An input with no keys still reports one pass over an empty index.
  std::vector<IdSet> single_key;
  single_key.emplace_back(std::vector<std::uint32_t>{0});
  const std::vector<std::vector<IdSet>> inputs = {{}, empties, one, single_key};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& items = inputs[i];
    JoinStats serial_stats;
    const auto serial = cooccurrence_join(items, 1, {}, &serial_stats);
    const auto plan = plan_key_shards(items, 0);
    EXPECT_EQ(serial_stats.shard_passes, 1u);
    EXPECT_EQ(serial_stats.peak_resident_postings_bytes, plan.total_bytes);
    if (plan.ranges.empty()) {
      EXPECT_EQ(serial_stats.peak_resident_postings_bytes, postings_bytes(0, 0));
    }

    JoinStats parallel_stats;
    EXPECT_EQ(cooccurrence_join_parallel(items, 1, {}, 4, &parallel_stats),
              serial);
    EXPECT_EQ(parallel_stats, serial_stats);
    JoinStats unbounded_stats;
    EXPECT_EQ(cooccurrence_join_sharded(items, 1, {}, 0, 4, &unbounded_stats),
              serial);
    EXPECT_EQ(unbounded_stats, serial_stats);

    // A 64-byte budget splits a keyed input into several passes; only the
    // pass count and the resident peak may differ from the in-RAM join.
    const auto bounded_plan = plan_key_shards(items, 64);
    JoinStats bounded_stats;
    EXPECT_EQ(cooccurrence_join_sharded(items, 1, {}, 64, 4, &bounded_stats),
              serial);
    EXPECT_EQ(bounded_stats.shard_passes,
              std::max<std::size_t>(bounded_plan.ranges.size(), 1));
    EXPECT_EQ(bounded_stats.peak_resident_postings_bytes,
              bounded_plan.ranges.empty() ? postings_bytes(0, 0)
                                          : bounded_plan.peak_bytes);
    JoinStats expected = serial_stats;
    expected.shard_passes = bounded_stats.shard_passes;
    expected.peak_resident_postings_bytes =
        bounded_stats.peak_resident_postings_bytes;
    EXPECT_EQ(bounded_stats, expected);
  }
}

}  // namespace
}  // namespace smash::graph
