#include "core/preprocess.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;
using test::resolve;

TEST(AggregatedTrace, MergesSubdomains) {
  net::Trace trace;
  add_request(trace, "c1", "www.xyz.com", "/a.html");
  add_request(trace, "c2", "cdn.xyz.com", "/b.html");
  add_request(trace, "c3", "other.net", "/c.html");
  trace.finalize();

  const auto agg = AggregatedTrace::build(trace);
  EXPECT_EQ(agg.num_servers_before_aggregation(), 3u);
  EXPECT_EQ(agg.servers().size(), 2u);
  const auto xyz = agg.servers().find("xyz.com");
  ASSERT_TRUE(xyz.has_value());
  EXPECT_EQ(agg.profile(*xyz).clients.size(), 2u);
  EXPECT_EQ(agg.profile(*xyz).requests, 2u);
  EXPECT_EQ(agg.profile(*xyz).files.size(), 2u);
}

TEST(AggregatedTrace, MergesResolutionsAndRedirects) {
  net::Trace trace;
  add_request(trace, "c1", "a.xyz.com", "/");
  add_request(trace, "c1", "b.xyz.com", "/");
  resolve(trace, "a.xyz.com", "1.1.1.1");
  resolve(trace, "b.xyz.com", "2.2.2.2");
  add_request(trace, "c1", "short.cc", "/go", "UA", "", 302);
  trace.add_redirect(trace.intern_server("short.cc"),
                     trace.intern_server("www.land.com"));
  add_request(trace, "c1", "www.land.com", "/l");
  trace.finalize();

  const auto agg = AggregatedTrace::build(trace);
  const auto xyz = *agg.servers().find("xyz.com");
  EXPECT_EQ(agg.profile(xyz).ips.size(), 2u);
  const auto shortener = *agg.servers().find("short.cc");
  ASSERT_TRUE(agg.redirects().count(shortener));
  EXPECT_EQ(agg.server_name(agg.redirects().at(shortener)), "land.com");
}

TEST(AggregatedTrace, TracksUserAgentsPatternsReferrersErrors) {
  net::Trace trace;
  add_request(trace, "c1", "x.com", "/f.php?a=1&b=2", "AgentA", "landing.com", 200);
  add_request(trace, "c2", "x.com", "/f.php?a=9&b=8", "AgentB", "landing.com", 404);
  trace.finalize();

  const auto agg = AggregatedTrace::build(trace);
  const auto& p = agg.profile(*agg.servers().find("x.com"));
  EXPECT_EQ(p.user_agents.size(), 2u);
  EXPECT_EQ(p.param_patterns.size(), 1u);
  EXPECT_EQ(p.param_patterns.count("a=&b="), 1u);
  EXPECT_EQ(p.error_requests, 1u);
  ASSERT_EQ(p.referrer_counts.size(), 1u);
  EXPECT_EQ(p.referrer_counts.begin()->second, 2u);
}

TEST(Preprocess, IdfFilterRemovesPopularServers) {
  net::Trace trace;
  // "popular.com" gets 5 clients, the rest get 1-2.
  for (int c = 0; c < 5; ++c) {
    add_request(trace, "client" + std::to_string(c), "popular.com", "/p.html");
  }
  add_request(trace, "client0", "small.com", "/s.html");
  add_request(trace, "client1", "tiny.org", "/t.html");
  trace.finalize();

  SmashConfig config;
  config.idf_threshold = 4;
  const auto pre = preprocess(trace, config);
  EXPECT_EQ(pre.servers_after_aggregation, 3u);
  EXPECT_EQ(pre.servers_after_filter, 2u);
  EXPECT_EQ(pre.total_requests, 7u);
  EXPECT_EQ(pre.requests_after_filter, 2u);
  for (auto kept : pre.kept) {
    EXPECT_NE(pre.agg.server_name(kept), "popular.com");
  }
  // kept_index_of is consistent with kept.
  for (std::uint32_t i = 0; i < pre.kept.size(); ++i) {
    EXPECT_EQ(pre.kept_index_of[pre.kept[i]], static_cast<std::int32_t>(i));
  }
}

TEST(Preprocess, ThresholdBoundaryIsInclusive) {
  net::Trace trace;
  for (int c = 0; c < 3; ++c) {
    add_request(trace, numbered("c", c), "edge.com", "/e.html");
  }
  trace.finalize();
  SmashConfig config;
  config.idf_threshold = 3;  // exactly 3 clients: kept (filter is "> thresh")
  EXPECT_EQ(preprocess(trace, config).servers_after_filter, 1u);
  config.idf_threshold = 2;
  EXPECT_EQ(preprocess(trace, config).servers_after_filter, 0u);
}

TEST(Preprocess, ReferrerOnlyHostsAreNotKept) {
  net::Trace trace;
  // "landing.com" appears only as a Referer, never requested.
  add_request(trace, "c1", "embedded.com", "/w.js", "UA", "landing.com");
  trace.finalize();
  const auto pre = preprocess(trace, SmashConfig{});
  EXPECT_EQ(pre.servers_after_filter, 1u);
  EXPECT_EQ(pre.agg.server_name(pre.kept[0]), "embedded.com");
}

}  // namespace
}  // namespace smash::core
