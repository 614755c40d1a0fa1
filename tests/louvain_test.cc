#include "graph/louvain.h"

#include <gtest/gtest.h>

#include <set>

#include "test_helpers.h"

namespace smash::graph {
namespace {

// Two k-cliques joined by a single weak bridge edge.
Graph two_cliques(std::uint32_t k, double bridge_weight) {
  GraphBuilder builder(2 * k);
  for (std::uint32_t u = 0; u < k; ++u) {
    for (std::uint32_t v = u + 1; v < k; ++v) {
      builder.add_edge(u, v, 1.0);
      builder.add_edge(k + u, k + v, 1.0);
    }
  }
  builder.add_edge(0, k, bridge_weight);
  return std::move(builder).build();
}

TEST(Louvain, SeparatesTwoCliques) {
  const Graph g = two_cliques(6, 0.1);
  const auto result = louvain(g);
  EXPECT_EQ(result.num_communities, 2u);
  // Same community within each clique.
  for (std::uint32_t v = 1; v < 6; ++v) {
    EXPECT_EQ(result.community_of[v], result.community_of[0]);
    EXPECT_EQ(result.community_of[6 + v], result.community_of[6]);
  }
  EXPECT_NE(result.community_of[0], result.community_of[6]);
  EXPECT_GT(result.modularity, 0.4);
}

TEST(Louvain, EdgelessGraphIsAllSingletons) {
  const Graph g = GraphBuilder(5).build();
  const auto result = louvain(g);
  EXPECT_EQ(result.num_communities, 5u);
  EXPECT_DOUBLE_EQ(result.modularity, 0.0);
}

TEST(Louvain, SingleCliqueStaysTogether) {
  const Graph g = two_cliques(5, 0.0001);  // bridge negligible
  GraphBuilder builder(4);
  for (std::uint32_t u = 0; u < 4; ++u) {
    for (std::uint32_t v = u + 1; v < 4; ++v) builder.add_edge(u, v);
  }
  const auto result = louvain(std::move(builder).build());
  EXPECT_EQ(result.num_communities, 1u);
}

TEST(Louvain, EmptyGraphHasNoCommunities) {
  const Graph g = GraphBuilder(0).build();
  for (const auto& result : {louvain(g), louvain_refined(g)}) {
    EXPECT_EQ(result.num_communities, 0u);
    EXPECT_TRUE(result.community_of.empty());
  }
}

TEST(Louvain, CliquePlusIsolatedNodes) {
  // A 6-clique and 6 isolated stragglers: the clique is one community and
  // every isolated node its own singleton.
  GraphBuilder builder(12);
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = i + 1; j < 6; ++j) builder.add_edge(i, j, 1.0);
  }
  const Graph g = std::move(builder).build();
  for (const auto& result : {louvain(g), louvain_refined(g)}) {
    EXPECT_EQ(result.num_communities, 7u);
    std::set<std::uint32_t> labels;
    for (std::uint32_t v = 0; v < 12; ++v) {
      if (v < 6) {
        EXPECT_EQ(result.community_of[v], result.community_of[0]);
      } else {
        labels.insert(result.community_of[v]);
      }
    }
    EXPECT_EQ(labels.size(), 6u);
    EXPECT_EQ(labels.count(result.community_of[0]), 0u);
  }
}

TEST(Louvain, StatsCountWorkOnClusteredGraph) {
  const Graph g = test::random_clustered_graph(12, 8, 0.8, 7);
  const auto result = louvain(g);
  EXPECT_GT(result.stats.sweeps, 0u);
  EXPECT_GT(result.stats.evaluated_nodes, 0u);
}

TEST(Louvain, Deterministic) {
  const Graph g = two_cliques(8, 0.2);
  const auto a = louvain(g);
  const auto b = louvain(g);
  EXPECT_EQ(a.community_of, b.community_of);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(Modularity, PerfectPartitionBeatsRandom) {
  const Graph g = two_cliques(6, 0.1);
  std::vector<std::uint32_t> good(12);
  std::vector<std::uint32_t> merged(12, 0);
  for (std::uint32_t v = 0; v < 12; ++v) good[v] = v < 6 ? 0 : 1;
  EXPECT_GT(modularity(g, good), modularity(g, merged));
  EXPECT_THROW(modularity(g, std::vector<std::uint32_t>(3, 0)),
               std::invalid_argument);
}

TEST(Modularity, AllInOneCommunityIsNonPositiveQForCompleteGraph) {
  GraphBuilder builder(4);
  for (std::uint32_t u = 0; u < 4; ++u) {
    for (std::uint32_t v = u + 1; v < 4; ++v) builder.add_edge(u, v);
  }
  const Graph g = std::move(builder).build();
  // Q of the trivial one-community partition is 1 - 1 = 0.
  EXPECT_NEAR(modularity(g, std::vector<std::uint32_t>(4, 0)), 0.0, 1e-12);
}

// The resolution-limit scenario that motivates refinement: a long ring of
// small cliques bridged by single edges. Plain modularity merges adjacent
// cliques; refinement must recover the individual cliques.
TEST(LouvainRefined, SplitsRingOfCliques) {
  constexpr std::uint32_t kCliques = 24;
  constexpr std::uint32_t kSize = 4;
  GraphBuilder builder(kCliques * kSize);
  for (std::uint32_t c = 0; c < kCliques; ++c) {
    const std::uint32_t base = c * kSize;
    for (std::uint32_t u = 0; u < kSize; ++u) {
      for (std::uint32_t v = u + 1; v < kSize; ++v) {
        builder.add_edge(base + u, base + v, 1.0);
      }
    }
    // Bridge to the next clique.
    builder.add_edge(base, ((c + 1) % kCliques) * kSize, 0.3);
  }
  const Graph g = std::move(builder).build();

  const auto plain = louvain(g);
  const auto refined = louvain_refined(g);
  // Plain Louvain may agglomerate adjacent cliques (resolution limit) but
  // never does better than one community per clique.
  EXPECT_LE(plain.num_communities, kCliques);
  // Refinement recovers all of them exactly.
  EXPECT_EQ(refined.num_communities, kCliques);
  for (std::uint32_t c = 0; c < kCliques; ++c) {
    const std::uint32_t base = c * kSize;
    for (std::uint32_t v = 1; v < kSize; ++v) {
      EXPECT_EQ(refined.community_of[base + v], refined.community_of[base]);
    }
  }
}

TEST(LouvainRefined, CliqueIsStable) {
  GraphBuilder builder(8);
  for (std::uint32_t u = 0; u < 8; ++u) {
    for (std::uint32_t v = u + 1; v < 8; ++v) builder.add_edge(u, v);
  }
  const auto result = louvain_refined(std::move(builder).build());
  EXPECT_EQ(result.num_communities, 1u);
}

TEST(LouvainRefined, MatchesPlainOnTwoCliques) {
  const Graph g = two_cliques(6, 0.1);
  const auto refined = louvain_refined(g);
  EXPECT_EQ(refined.num_communities, 2u);
}

TEST(LouvainRefined, Deterministic) {
  const Graph g = two_cliques(7, 0.15);
  const auto a = louvain_refined(g);
  const auto b = louvain_refined(g);
  EXPECT_EQ(a.community_of, b.community_of);
}

class LouvainCliqueSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

// Property: for any clique size, both algorithms keep the clique whole and
// groups() partitions the nodes.
TEST_P(LouvainCliqueSizeTest, CliqueNeverSplits) {
  const std::uint32_t k = GetParam();
  GraphBuilder builder(k);
  for (std::uint32_t u = 0; u < k; ++u) {
    for (std::uint32_t v = u + 1; v < k; ++v) builder.add_edge(u, v);
  }
  const Graph g = std::move(builder).build();
  for (const auto& result : {louvain(g), louvain_refined(g)}) {
    EXPECT_EQ(result.num_communities, 1u);
    std::size_t total = 0;
    for (const auto& group : result.groups()) total += group.size();
    EXPECT_EQ(total, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LouvainCliqueSizeTest,
                         ::testing::Values(2u, 3u, 5u, 10u, 25u, 60u));

}  // namespace
}  // namespace smash::graph
