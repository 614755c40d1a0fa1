// Robustness and property tests: degenerate inputs through the full
// pipeline, and cross-seed invariants of the synthetic-world + pipeline
// combination.
#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "synth/world.h"
#include "test_helpers.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;

TEST(Robustness, EmptyTrace) {
  net::Trace trace;
  trace.finalize();
  whois::Registry registry;
  const auto result = SmashPipeline{}.run(trace, registry);
  EXPECT_EQ(result.pre.servers_after_filter, 0u);
  EXPECT_TRUE(result.campaigns.empty());
}

TEST(Robustness, SingleRequestTrace) {
  net::Trace trace;
  add_request(trace, "c1", "only.com", "/x.html");
  trace.finalize();
  whois::Registry registry;
  const auto result = SmashPipeline{}.run(trace, registry);
  EXPECT_EQ(result.pre.servers_after_filter, 1u);
  EXPECT_TRUE(result.campaigns.empty());  // nothing to associate with
}

TEST(Robustness, AllServersPopularYieldsNothing) {
  net::Trace trace;
  for (int s = 0; s < 3; ++s) {
    for (int c = 0; c < 10; ++c) {
      add_request(trace, numbered("c", c), numbered("pop", s) + ".com",
                  "/p.html");
    }
  }
  trace.finalize();
  whois::Registry registry;
  SmashConfig config;
  config.idf_threshold = 5;
  const auto result = SmashPipeline(config).run(trace, registry);
  EXPECT_EQ(result.pre.servers_after_filter, 0u);
  EXPECT_TRUE(result.campaigns.empty());
}

TEST(Robustness, MissingWhoisRegistryIsFine) {
  net::Trace trace;
  for (const char* bot : {"b1", "b2"}) {
    for (int s = 0; s < 10; ++s) {
      add_request(trace, bot, numbered("m", s) + ".com", "/gate.php");
    }
  }
  trace.finalize();
  whois::Registry empty;  // no records at all
  SmashConfig config;
  config.idf_threshold = 100;
  const auto result = SmashPipeline(config).run(trace, empty);
  EXPECT_EQ(result.campaigns.size(), 1u);  // file dimension carries it
}

TEST(Robustness, IpLiteralServersSurviveAggregation) {
  net::Trace trace;
  for (const char* bot : {"b1", "b2"}) {
    for (int s = 0; s < 9; ++s) {
      add_request(trace, bot, "10.9.8." + std::to_string(s), "/sh.php");
    }
  }
  trace.finalize();
  whois::Registry registry;
  SmashConfig config;
  config.idf_threshold = 100;
  const auto result = SmashPipeline(config).run(trace, registry);
  ASSERT_EQ(result.campaigns.size(), 1u);
  EXPECT_EQ(result.campaigns[0].servers.size(), 9u);
  EXPECT_EQ(result.server_name(result.campaigns[0].servers[0]).substr(0, 7),
            "10.9.8.");
}

TEST(Robustness, DuplicateRequestsDoNotInflateAnything) {
  net::Trace a;
  net::Trace b;
  for (const char* bot : {"b1", "b2"}) {
    for (int s = 0; s < 8; ++s) {
      const std::string host = numbered("d", s) + ".com";
      add_request(a, bot, host, "/x.php");
      for (int rep = 0; rep < 5; ++rep) add_request(b, bot, host, "/x.php");
    }
  }
  a.finalize();
  b.finalize();
  whois::Registry registry;
  SmashConfig config;
  config.idf_threshold = 100;
  const auto ra = SmashPipeline(config).run(a, registry);
  const auto rb = SmashPipeline(config).run(b, registry);
  ASSERT_EQ(ra.campaigns.size(), rb.campaigns.size());
  ASSERT_EQ(ra.campaigns.size(), 1u);
  EXPECT_EQ(ra.campaigns[0].servers.size(), rb.campaigns[0].servers.size());
}

// Cross-seed properties of the full synthetic-world pipeline.
class SeedPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedPropertyTest, PipelineInvariantsHoldForAnySeed) {
  const synth::Dataset ds = synth::generate_world(synth::tiny_world(GetParam()));
  SmashConfig config;
  config.idf_threshold = 60;
  const auto result = SmashPipeline(config).run(ds.trace, ds.whois);

  // Invariant 1: every campaign has >= 2 servers and >= 1 involved client.
  for (const auto& campaign : result.campaigns) {
    EXPECT_GE(campaign.servers.size(), 2u);
    EXPECT_GE(campaign.involved_clients.size(), 1u);
  }
  // Invariant 2: no server appears in two campaigns (main herds partition).
  std::set<std::uint32_t> seen;
  for (const auto& campaign : result.campaigns) {
    for (auto member : campaign.servers) {
      EXPECT_TRUE(seen.insert(member).second) << "server in two campaigns";
    }
  }
  // Invariant 3: detections never include unstructured benign servers.
  for (const auto& campaign : result.campaigns) {
    for (auto member : campaign.servers) {
      EXPECT_TRUE(ds.truth.campaign_of(result.server_name(member)).has_value());
    }
  }
  // Invariant 4: scores are finite and non-negative; masks only use bits
  // of dimensions that exist.
  for (std::size_t i = 0; i < result.correlation.score.size(); ++i) {
    EXPECT_GE(result.correlation.score[i], 0.0);
    EXPECT_LT(result.correlation.score[i],
              static_cast<double>(result.dims.size()));
    EXPECT_EQ(result.correlation.dims_mask[i] & ~0b111, 0);
  }
  // Invariant 5: evaluation partitions every detected server into exactly
  // one verdict bucket.
  const Evaluator evaluator(ds.trace, ds.signatures, ds.blacklist, ds.truth);
  for (const bool single : {false, true}) {
    const auto eval = evaluator.evaluate(result, single);
    const auto& c = eval.server_counts;
    EXPECT_EQ(c.smash, c.ids2012 + c.ids2013 + c.blacklist + c.new_servers +
                           c.suspicious + c.false_positives);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace smash::core
