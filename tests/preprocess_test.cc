#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "preprocess_oracle.h"
#include "stream_fuzz_helpers.h"
#include "synth/scenarios.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;
using test::resolve;

// The threaded build equals the serial oracle field for field, at every
// thread count, and preprocess() hands the same aggregation on.
void expect_build_matches_reference(const net::Trace& trace) {
  const AggregatedTrace reference = test::build_reference(trace);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(numbered("threads=", threads));
    test::expect_same_aggregation(AggregatedTrace::build(trace, threads), reference);
    SmashConfig config;
    config.num_threads = threads;
    test::expect_same_aggregation(preprocess(trace, config).agg, reference);
  }
}

// A random trace over a small name space, so that hostnames fold into
// shared 2LDs, malformed names (empty labels, leading and trailing dots,
// IP literals, bare suffixes) turn up as hosts and as referrers, and
// referrers name 2LDs no request goes to.
net::Trace random_trace(std::uint64_t seed, std::size_t num_requests) {
  util::Rng rng(seed);
  const std::vector<std::string> labels = {"", "a", "b", "www", "cdn", "co", "uk",
                                           "com", "cz", "cc", "org", "10", "1"};
  const auto host = [&] {
    std::string out;
    const auto n = 1 + rng.uniform(4);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i > 0) out += '.';
      out += labels[rng.uniform(labels.size())];
    }
    return out;
  };
  const std::vector<std::string> files = {"", "a.php", "b.js", "index.html", "x"};
  net::Trace trace;
  for (std::size_t r = 0; r < num_requests; ++r) {
    std::string path = "/";
    if (rng.bernoulli(0.5)) path += numbered("d", static_cast<long long>(rng.uniform(3))) + "/";
    path += files[rng.uniform(files.size())];
    if (rng.bernoulli(0.3)) path += rng.bernoulli(0.5) ? "?id=1&x=2" : "?&p=&id";
    add_request(trace, numbered("c", static_cast<long long>(rng.uniform(20))), host(),
                path, numbered("UA", static_cast<long long>(rng.uniform(4))),
                rng.bernoulli(0.4) ? host() : "", rng.bernoulli(0.2) ? 404 : 200,
                static_cast<std::uint32_t>(rng.uniform(3)));
    if (rng.bernoulli(0.1)) resolve(trace, host(), numbered("9.9.9.", static_cast<long long>(rng.uniform(8))));
    if (rng.bernoulli(0.05)) {
      trace.add_redirect(trace.intern_server(host()), trace.intern_server(host()));
    }
  }
  trace.finalize();
  return trace;
}

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

TEST(AggregatedTrace, EmptyTraceAtEveryThreadCount) {
  net::Trace trace;
  trace.finalize();
  expect_build_matches_reference(trace);
  EXPECT_TRUE(AggregatedTrace::build(trace, 4).profiles().empty());
}

TEST(AggregatedTrace, ResolutionsOnlyAtEveryThreadCount) {
  net::Trace trace;
  resolve(trace, "a.xyz.com", "1.1.1.1");
  resolve(trace, "b.xyz.com", "2.2.2.2");
  resolve(trace, "other.net", "1.1.1.1");
  trace.add_redirect(trace.intern_server("a.xyz.com"), trace.intern_server("other.net"));
  trace.finalize();
  expect_build_matches_reference(trace);
  const auto agg = AggregatedTrace::build(trace, 4);
  const auto xyz = *agg.servers().find("xyz.com");
  EXPECT_EQ(agg.profile(xyz).ips.size(), 2u);
  EXPECT_EQ(agg.profile(xyz).requests, 0u);
}

TEST(AggregatedTrace, ReferrerOnly2ldsAtEveryThreadCount) {
  net::Trace trace;
  for (int r = 0; r < 40; ++r) {
    // Referrer-only 2LDs, some repeated and some malformed, interleaved
    // with referrers that are also requested.
    const std::string referrer =
        r % 5 == 0 ? "x..com" : numbered("www.ref", r % 7) + ".org";
    add_request(trace, numbered("c", r % 3), numbered("h", r % 4) + ".served.net",
                "/p.js", "UA", r % 2 == 0 ? referrer : "h1.served.net");
  }
  trace.finalize();
  expect_build_matches_reference(trace);
  const auto agg = AggregatedTrace::build(trace, 3);
  EXPECT_EQ(agg.agg_of().size(), 4u);
  EXPECT_EQ(agg.servers().size(), 1u + 7u + 1u);  // served.net, ref0..6.org, com
  EXPECT_EQ(agg.profile(*agg.servers().find("com")).requests, 0u);
}

TEST(AggregatedTrace, HostnamesFoldingAcrossChunkBordersAtEveryThreadCount) {
  // 300 hostnames of one 2LD spread over the whole hostname and request
  // ranges, between hosts of their own, so every chunk border of every
  // thread count cuts through the shared 2LD.
  net::Trace trace;
  for (int r = 0; r < 3000; ++r) {
    const std::string host = r % 3 == 0 ? numbered("h", r % 300) + ".fold.com"
                                        : numbered("own", r % 500) + ".net";
    add_request(trace, numbered("c", r % 17), host, numbered("/f", r % 41),
                numbered("UA", r % 5), r % 11 == 0 ? "fold.com" : "", 200,
                static_cast<std::uint32_t>(r % 2));
    if (r % 13 == 0) resolve(trace, host, numbered("10.0.0.", r % 9));
  }
  trace.finalize();
  expect_build_matches_reference(trace);
  const auto agg = AggregatedTrace::build(trace, 8);
  EXPECT_EQ(agg.profile(*agg.servers().find("fold.com")).requests, 1000u);
}

TEST(AggregatedTrace, MoreThreadsThan2lds) {
  net::Trace trace;
  add_request(trace, "c1", "a.one.com", "/x?a=1", "UA1", "two.com");
  add_request(trace, "c2", "b.one.com", "/y", "UA2");
  add_request(trace, "c1", "two.com", "/x", "UA1", "", 500);
  trace.finalize();
  expect_build_matches_reference(trace);
}

TEST(AggregatedTrace, SeededRandomTracesAtEveryThreadCount) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(numbered("seed=", static_cast<long long>(seed)));
    expect_build_matches_reference(random_trace(seed, 200 * seed));
  }
}

TEST(AggregatedTrace, FuzzScenarioTraceAtEveryThreadCount) {
  const auto scenario = test::random_matrix_scenario(7);
  expect_build_matches_reference(synth::to_batch_trace(scenario));
}

}  // namespace
}  // namespace smash::core
