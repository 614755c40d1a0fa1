// mine_all_dimensions with threads=N must return identical DimensionAshes
// to the serial run: dimensions are independent and the sharded client
// join reproduces the serial pair stream exactly.
#include "core/dimensions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/pipeline.h"
#include "synth/world.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;
using test::resolve;

// A trace with enough structure that every dimension produces herds:
// campaign-style client overlap, shared files, shared IPs, plus benign
// background noise.
net::Trace structured_trace() {
  util::Rng rng(2024);
  net::Trace trace;

  // Three campaigns of 4 servers, each visited by 3 dedicated bots
  // requesting the same exe.
  for (int campaign = 0; campaign < 3; ++campaign) {
    for (int server = 0; server < 4; ++server) {
      const std::string host = "c" + std::to_string(campaign) + "s" +
                               std::to_string(server) + ".com";
      for (int bot = 0; bot < 3; ++bot) {
        const std::string client =
            "bot" + std::to_string(campaign) + "_" + std::to_string(bot);
        add_request(trace, client, host,
                    "/drop" + std::to_string(campaign) + ".exe");
      }
      resolve(trace, host, "10.0." + std::to_string(campaign) + ".7");
    }
  }

  // Benign background: 60 servers with light random traffic.
  for (int server = 0; server < 60; ++server) {
    const std::string host = "site" + std::to_string(server) + ".org";
    const auto visitors = 1 + rng.uniform(4);
    for (std::uint64_t i = 0; i < visitors; ++i) {
      const std::string client = "user" + std::to_string(rng.uniform(40));
      add_request(trace, client, host,
                  "/page" + std::to_string(rng.uniform(6)) + ".html");
    }
    resolve(trace, host,
            "192.168." + std::to_string(server % 8) + "." +
                std::to_string(server));
  }

  trace.finalize();
  return trace;
}

void expect_same_ashes(const DimensionAshes& a, const DimensionAshes& b) {
  EXPECT_EQ(a.dimension, b.dimension);
  EXPECT_EQ(a.ash_of, b.ash_of);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
  ASSERT_EQ(a.ashes.size(), b.ashes.size());
  for (std::size_t i = 0; i < a.ashes.size(); ++i) {
    EXPECT_EQ(a.ashes[i].members, b.ashes[i].members);
    EXPECT_DOUBLE_EQ(a.ashes[i].density, b.ashes[i].density);
  }
}

TEST(ParallelMining, ThreadsFourMatchesSerial) {
  const net::Trace trace = structured_trace();
  const whois::Registry registry;

  SmashConfig serial_config;
  serial_config.idf_threshold = 100;
  serial_config.num_threads = 1;
  SmashConfig threaded_config = serial_config;
  threaded_config.num_threads = 4;

  const auto pre_serial = preprocess(trace, serial_config);
  const auto pre_threaded = preprocess(trace, threaded_config);
  EXPECT_EQ(pre_serial.kept, pre_threaded.kept);

  const auto serial = mine_all_dimensions(pre_serial, registry, serial_config);
  const auto threaded =
      mine_all_dimensions(pre_threaded, registry, threaded_config);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t d = 0; d < serial.size(); ++d) {
    expect_same_ashes(serial[d], threaded[d]);
  }
}

TEST(ParallelMining, ParamDimensionIncludedWhenEnabled) {
  const net::Trace trace = structured_trace();
  const whois::Registry registry;

  SmashConfig config;
  config.idf_threshold = 100;
  config.enable_param_dimension = true;
  config.num_threads = 4;

  const auto pre = preprocess(trace, config);
  const auto dims = mine_all_dimensions(pre, registry, config);
  ASSERT_EQ(dims.size(), static_cast<std::size_t>(kNumDimensions + 1));

  config.num_threads = 1;
  const auto serial = mine_all_dimensions(pre, registry, config);
  for (std::size_t d = 0; d < dims.size(); ++d) {
    expect_same_ashes(serial[d], dims[d]);
  }
}

// The whois and file joins are probe-range sharded like the client join;
// their output must be identical for any thread count.
TEST(ParallelMining, WhoisAndFileJoinShardsMatchSerial) {
  const net::Trace trace = structured_trace();

  // Whois records sharing registrant+email inside each campaign, so the
  // whois join has real pairs to find.
  whois::Registry registry;
  for (int campaign = 0; campaign < 3; ++campaign) {
    whois::Record record;
    record.registrant = "actor" + std::to_string(campaign);
    record.email = "a" + std::to_string(campaign) + "@mail.test";
    for (int server = 0; server < 4; ++server) {
      registry.add(numbered(numbered("c", campaign) + "s", server) + ".com",
                   record);
    }
  }

  SmashConfig serial_config;
  serial_config.idf_threshold = 100;
  serial_config.num_threads = 1;
  const auto pre = preprocess(trace, serial_config);

  for (const auto dimension : {Dimension::kWhois, Dimension::kFile}) {
    const auto serial =
        mine_dimension(dimension, pre, registry, serial_config);
    EXPECT_FALSE(serial.ashes.empty())
        << dimension_name(dimension) << " found no herds; test is vacuous";
    for (const unsigned threads : {2u, 3u, 5u, 8u}) {
      SmashConfig threaded_config = serial_config;
      threaded_config.num_threads = threads;
      const auto threaded =
          mine_dimension(dimension, pre, registry, threaded_config);
      expect_same_ashes(serial, threaded);
      EXPECT_EQ(serial.join_stats, threaded.join_stats)
          << dimension_name(dimension) << " threads=" << threads;
    }
  }
}

// Runs `config` at `budget` bytes on 1 and 4 threads against its
// `unbounded` run: the budgeted runs must reproduce the kept servers, ashes
// and campaigns byte-identically, provably shard (more passes than joins),
// stay within the budget, and never trip the postings cap.
void expect_budgeted_matches(const net::Trace& trace,
                             const whois::Registry& registry,
                             const SmashConfig& config,
                             const SmashResult& unbounded,
                             std::size_t budget) {
  const std::size_t joins = unbounded.dims.size();
  for (const unsigned threads : {1u, 4u}) {
    SmashConfig budgeted = config;
    budgeted.num_threads = threads;
    budgeted.join_memory_budget_bytes = budget;
    const auto result = SmashPipeline(budgeted).run(trace, registry);

    EXPECT_EQ(result.pre.kept, unbounded.pre.kept) << "threads=" << threads;
    ASSERT_EQ(result.dims.size(), unbounded.dims.size());
    for (std::size_t d = 0; d < result.dims.size(); ++d) {
      expect_same_ashes(unbounded.dims[d], result.dims[d]);
    }
    ASSERT_EQ(result.campaigns.size(), unbounded.campaigns.size());
    for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
      EXPECT_EQ(result.campaigns[c].servers, unbounded.campaigns[c].servers);
      EXPECT_EQ(result.campaigns[c].involved_clients,
                unbounded.campaigns[c].involved_clients);
    }

    EXPECT_GT(result.join_shard_passes(), joins) << "threads=" << threads;
    // No key in these inputs outruns the budget on its own, so residency
    // honors it (the threaded fan-out splits it per dimension, which only
    // tightens the bound).
    EXPECT_LE(result.peak_resident_postings_bytes(), budget)
        << "threads=" << threads;
    EXPECT_FALSE(result.postings_budget_exceeded()) << "threads=" << threads;
  }
}

// SmashConfig::join_memory_budget_bytes must change memory shape only:
// campaigns and ashes are byte-identical to the unbounded run, the
// bounded-memory sharding provably engaged (more passes than joins), and
// residency observables flow up into SmashResult.
TEST(ParallelMining, BudgetedJoinsMatchUnbounded) {
  const net::Trace trace = structured_trace();
  const whois::Registry registry;

  SmashConfig config;
  config.idf_threshold = 100;
  config.num_threads = 1;
  const auto unbounded = SmashPipeline(config).run(trace, registry);
  // One pass per join.
  EXPECT_EQ(unbounded.join_shard_passes(), unbounded.dims.size());
  EXPECT_GT(unbounded.peak_resident_postings_bytes(), 0u);
  expect_budgeted_matches(trace, registry, config, unbounded, 1024);

  // A scaled-down 2012week world with the postings caps made inert (no
  // skipping, no undercount), budgeted at a quarter of the in-RAM peak:
  // week scale completes exactly where the default stop-file cap would
  // undercount.
  const auto week =
      synth::generate_world(synth::data2012week().scaled(0.12));
  SmashConfig exact;
  exact.num_threads = 1;
  exact.join_postings_cap = std::numeric_limits<std::uint32_t>::max();
  exact.file_postings_cap = std::numeric_limits<std::uint32_t>::max();
  const auto week_unbounded = SmashPipeline(exact).run(week.trace, week.whois);
  EXPECT_GT(week_unbounded.campaigns.size(), 0u);
  EXPECT_FALSE(week_unbounded.postings_budget_exceeded());
  const std::size_t budget =
      std::max<std::size_t>(week_unbounded.peak_resident_postings_bytes() / 4, 1);
  expect_budgeted_matches(week.trace, week.whois, exact, week_unbounded, budget);
}

// A workload whose client join dwarfs every other dimension's: the
// cardinality-weighted budget split should park almost the whole budget on
// the client dimension and spend far fewer total shard passes than an
// even split would — with byte-identical mined output either way.
net::Trace skewed_trace() {
  net::Trace trace;
  // 30 servers, each visited by an overlapping window of 80 distinct
  // clients out of a pool of 200: client postings ~2400 entries, while the
  // file/ip dimensions hold ~30 entries each.
  for (int server = 0; server < 30; ++server) {
    const std::string host = numbered("h", server) + ".com";
    for (int k = 0; k < 80; ++k) {
      const int client = (server * 2 + k) % 200;
      add_request(trace, numbered("c", client), host, "/x.html");
    }
    resolve(trace, host, "10.1." + std::to_string(server / 4) + ".9");
  }
  trace.finalize();
  return trace;
}

TEST(ParallelMining, WeightedBudgetSplitReducesShardPasses) {
  const net::Trace trace = skewed_trace();
  const whois::Registry registry;

  SmashConfig config;
  config.num_threads = 4;  // concurrent fan-out: the split engages
  const auto pre = preprocess(trace, config);
  const auto unbounded = mine_all_dimensions(pre, registry, config);

  // A budget that fits the client index whole but not a quarter of it.
  constexpr std::size_t kBudget = 16384;
  config.join_memory_budget_bytes = kBudget;
  const auto weighted = mine_all_dimensions(pre, registry, config);
  ASSERT_EQ(weighted.size(), unbounded.size());

  // An even split would give every dimension a quarter of the budget.
  // Its pass count per dimension is the planner's range count at that
  // slice (a join with no keys still runs one pass); mining a dimension
  // alone under that slice gives the even split's ashes.
  SmashConfig even_config = config;
  even_config.num_threads = 1;
  even_config.join_memory_budget_bytes = kBudget / weighted.size();
  std::size_t even_passes = 0, weighted_passes = 0;
  for (std::size_t d = 0; d < weighted.size(); ++d) {
    const auto dimension = static_cast<Dimension>(d);
    const auto input = build_dimension_join_input(
        dimension, pre, registry, even_config, canonical_mining_order(pre), 1);
    const std::size_t passes = std::max<std::size_t>(
        graph::plan_key_shards(input.key_sets,
                               even_config.join_memory_budget_bytes)
            .ranges.size(),
        1);
    const auto even = mine_dimension(dimension, pre, registry, even_config);
    EXPECT_EQ(even.join_stats.shard_passes, passes);
    expect_same_ashes(unbounded[d], even);
    expect_same_ashes(unbounded[d], weighted[d]);
    even_passes += passes;
    weighted_passes += weighted[d].join_stats.shard_passes;
  }
  // The even split starves the dominant client join into extra passes;
  // the weighted split provably avoids them without changing output.
  EXPECT_GT(even_passes, weighted.size());
  EXPECT_LT(weighted_passes, even_passes);
}

TEST(ParallelMining, WeightedSplitIdenticalAcrossThreadCounts) {
  const net::Trace trace = skewed_trace();
  const whois::Registry registry;

  SmashConfig serial_config;
  serial_config.num_threads = 1;
  const auto serial = SmashPipeline(serial_config).run(trace, registry);

  for (const unsigned threads : {2u, 4u}) {
    SmashConfig config;
    config.num_threads = threads;
    config.join_memory_budget_bytes = 16384;  // weighted split by default
    const auto result = SmashPipeline(config).run(trace, registry);
    ASSERT_EQ(result.dims.size(), serial.dims.size());
    for (std::size_t d = 0; d < result.dims.size(); ++d) {
      expect_same_ashes(serial.dims[d], result.dims[d]);
    }
    ASSERT_EQ(result.campaigns.size(), serial.campaigns.size());
    for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
      EXPECT_EQ(result.campaigns[c].servers, serial.campaigns[c].servers);
    }
  }
}

// LouvainStats ride SmashResult like JoinStats: per-dimension counters are
// populated, the aggregate accessor sums them, and a threaded run (whose
// client join probes across the leftover threads) reports the same
// Louvain work and mines the same campaigns.
TEST(ParallelMining, LouvainStatsSurfacedThroughResult) {
  const net::Trace trace = structured_trace();
  const whois::Registry registry;

  SmashConfig config;
  config.idf_threshold = 100;
  config.num_threads = 1;
  const auto serial = SmashPipeline(config).run(trace, registry);
  const auto serial_stats = serial.louvain_stats();
  EXPECT_GT(serial_stats.sweeps, 0u);
  EXPECT_GT(serial_stats.evaluated_nodes, 0u);

  // 8 threads across 4 dimensions: the client dimension keeps the 5
  // leftover threads for its probe-sharded join.
  config.num_threads = 8;
  const auto pre = preprocess(trace, config);
  const auto dim_configs =
      per_dimension_mining_configs(pre, registry, config, kNumDimensions);
  const auto client = static_cast<int>(Dimension::kClient);
  EXPECT_EQ(dimension_join_threads(Dimension::kClient, dim_configs[client]),
            5u);

  const auto threaded = SmashPipeline(config).run(trace, registry);
  const auto threaded_stats = threaded.louvain_stats();
  EXPECT_EQ(serial_stats.sweeps, threaded_stats.sweeps);
  EXPECT_EQ(serial_stats.moves, threaded_stats.moves);
  EXPECT_EQ(serial_stats.evaluated_nodes, threaded_stats.evaluated_nodes);

  for (const auto* result : {&serial, &threaded}) {
    graph::LouvainStats summed;
    for (const auto& dim : result->dims) summed += dim.louvain_stats;
    EXPECT_EQ(summed, result->louvain_stats());
  }

  ASSERT_EQ(serial.campaigns.size(), threaded.campaigns.size());
  for (std::size_t c = 0; c < serial.campaigns.size(); ++c) {
    EXPECT_EQ(serial.campaigns[c].servers, threaded.campaigns[c].servers);
  }
}

TEST(ParallelMining, FullPipelineMatchesSerial) {
  const net::Trace trace = structured_trace();
  const whois::Registry registry;

  SmashConfig config;
  config.idf_threshold = 100;
  config.num_threads = 1;
  const auto serial = SmashPipeline(config).run(trace, registry);
  config.num_threads = 4;
  const auto threaded = SmashPipeline(config).run(trace, registry);

  ASSERT_EQ(serial.campaigns.size(), threaded.campaigns.size());
  for (std::size_t c = 0; c < serial.campaigns.size(); ++c) {
    EXPECT_EQ(serial.campaigns[c].servers, threaded.campaigns[c].servers);
    EXPECT_EQ(serial.campaigns[c].involved_clients,
              threaded.campaigns[c].involved_clients);
  }
}

}  // namespace
}  // namespace smash::core
