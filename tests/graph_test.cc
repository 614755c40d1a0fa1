#include "graph/graph.h"

#include <gtest/gtest.h>


namespace smash::graph {
namespace {

TEST(GraphBuilder, MergesDuplicateEdges) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 0, 2.0);  // same undirected edge
  builder.add_edge(1, 2, 0.5);
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 3.0);
}

TEST(GraphBuilder, RejectsBadInput) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(builder.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, WeightedDegreeAndSelfLoops) {
  GraphBuilder builder(2);
  builder.add_edge(0, 0, 2.0);  // self-loop
  builder.add_edge(0, 1, 1.0);
  const Graph g = std::move(builder).build();
  // Self-loop counts twice toward degree (modularity convention).
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 1.0);
  EXPECT_DOUBLE_EQ(g.self_loop(0), 2.0);
  EXPECT_DOUBLE_EQ(g.self_loop(1), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.0);
}

TEST(Graph, HasEdgeAndNeighborAccess) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  const Graph g = std::move(builder).build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_THROW(g.neighbors(4), std::out_of_range);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);
}

TEST(SubsetDensity, CliqueIsOne) {
  GraphBuilder builder(4);
  for (std::uint32_t u = 0; u < 4; ++u) {
    for (std::uint32_t v = u + 1; v < 4; ++v) builder.add_edge(u, v);
  }
  const Graph g = std::move(builder).build();
  const std::vector<std::uint32_t> all{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(subset_density(g, all), 1.0);
}

TEST(SubsetDensity, PathAndSmallSets) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const Graph g = std::move(builder).build();
  const std::vector<std::uint32_t> all{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(subset_density(g, all), 0.5);  // 3 edges / 6 pairs
  const std::vector<std::uint32_t> pair{0, 1};
  EXPECT_DOUBLE_EQ(subset_density(g, pair), 1.0);
  const std::vector<std::uint32_t> single{0};
  EXPECT_DOUBLE_EQ(subset_density(g, single), 0.0);
}

}  // namespace
}  // namespace smash::graph
