#include "core/pruning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_helpers.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;
using test::resolve;

SmashConfig config_with(std::uint32_t idf = 100) {
  SmashConfig config;
  config.idf_threshold = idf;
  return config;
}

std::uint32_t kept_index(const PreprocessResult& pre, const std::string& name) {
  for (std::uint32_t i = 0; i < pre.kept.size(); ++i) {
    if (pre.agg.server_name(pre.kept[i]) == name) return i;
  }
  throw std::runtime_error("not kept: " + name);
}

TEST(Pruning, RedirectChainCollapsesToLanding) {
  net::Trace trace;
  // hop1 -> hop2 -> landing; clients traverse the whole chain.
  for (const char* c : {"c1", "c2"}) {
    add_request(trace, c, "hop1.cc", "/go.php", "UA", "", 302);
    add_request(trace, c, "hop2.cc", "/go.php", "UA", "hop1.cc", 302);
    add_request(trace, c, "landing.com", "/home.html", "UA", "hop2.cc");
  }
  trace.add_redirect(trace.intern_server("hop1.cc"), trace.intern_server("hop2.cc"));
  trace.add_redirect(trace.intern_server("hop2.cc"),
                     trace.intern_server("landing.com"));
  trace.finalize();

  const auto config = config_with();
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "hop1.cc"), kept_index(pre, "hop2.cc")}};
  const auto result = prune(pre, groups, config);
  // Both hops collapse onto one landing -> group of 1 -> dropped.
  EXPECT_TRUE(result.groups.empty());
  EXPECT_EQ(result.stats.redirect_members_replaced, 2u);
  EXPECT_EQ(result.stats.groups_dropped, 1u);
}

TEST(Pruning, ReferrerGroupCollapsesToLandingServer) {
  net::Trace trace;
  for (const char* c : {"c1", "c2", "c3"}) {
    add_request(trace, c, "landing.com", "/home.html");
    add_request(trace, c, "widget1.net", "/w1.js", "UA", "landing.com");
    add_request(trace, c, "widget2.net", "/w2.js", "UA", "landing.com");
  }
  trace.finalize();

  const auto config = config_with();
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "widget1.net"), kept_index(pre, "widget2.net")}};
  const auto result = prune(pre, groups, config);
  EXPECT_TRUE(result.groups.empty());  // both replaced by one landing
  EXPECT_EQ(result.stats.referrer_members_replaced, 2u);
}

TEST(Pruning, MixedGroupKeepsNonChainMembers) {
  net::Trace trace;
  for (const char* c : {"c1", "c2"}) {
    add_request(trace, c, "mal1.com", "/gate.php");
    add_request(trace, c, "mal2.com", "/gate.php");
    add_request(trace, c, "redir.cc", "/go.php", "UA", "", 302);
  }
  trace.add_redirect(trace.intern_server("redir.cc"), trace.intern_server("mal1.com"));
  trace.finalize();

  const auto config = config_with();
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "mal1.com"), kept_index(pre, "mal2.com"),
       kept_index(pre, "redir.cc")}};
  const auto result = prune(pre, groups, config);
  // redir.cc replaced by its landing mal1.com (already present): group is
  // {mal1, mal2} and survives.
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size(), 2u);
}

TEST(Pruning, PartialReferrerDominanceDoesNotTrigger) {
  net::Trace trace;
  // widget gets half its traffic with a referrer, half organic: below the
  // 0.8 dominance default, so it is NOT treated as an embedded resource.
  add_request(trace, "c1", "widget.net", "/w.js", "UA", "landing.com");
  add_request(trace, "c2", "widget.net", "/w.js", "UA", "");
  add_request(trace, "c1", "peer.net", "/p.js");
  add_request(trace, "c2", "peer.net", "/p.js");
  trace.finalize();

  const auto config = config_with();
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "widget.net"), kept_index(pre, "peer.net")}};
  const auto result = prune(pre, groups, config);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size(), 2u);
  EXPECT_EQ(result.stats.referrer_members_replaced, 0u);
}

TEST(Pruning, TiedDominantReferrersPickTheLowest2ldInEitherInsertOrder) {
  // member.com carries alpha.com and beta.com as Referer on one request
  // each. At a dominance of 0.5 both qualify; the pick must not depend on
  // which was seen first (the referrer map's iteration order does).
  for (const bool alpha_first : {true, false}) {
    SCOPED_TRACE(alpha_first ? "alpha first" : "beta first");
    net::Trace trace;
    for (const char* c : {"c1", "c2"}) {
      add_request(trace, c, "alpha.com", "/a.html");
      add_request(trace, c, "beta.com", "/b.html");
      add_request(trace, c, "other.com", "/o.js");
    }
    add_request(trace, "c1", "member.com", "/m.js", "UA",
                alpha_first ? "alpha.com" : "beta.com");
    add_request(trace, "c2", "member.com", "/m.js", "UA",
                alpha_first ? "beta.com" : "alpha.com");
    trace.finalize();

    auto config = config_with();
    config.referrer_dominance = 0.5;
    const auto pre = preprocess(trace, config);
    const auto alpha = *pre.agg.servers().find("alpha.com");
    ASSERT_LT(alpha, *pre.agg.servers().find("beta.com"));
    const std::vector<std::vector<std::uint32_t>> groups{
        {kept_index(pre, "member.com"), kept_index(pre, "other.com")}};
    const auto result = prune(pre, groups, config);
    ASSERT_EQ(result.groups.size(), 1u);
    EXPECT_EQ(result.stats.referrer_members_replaced, 1u);
    std::vector<std::uint32_t> expected{kept_index(pre, "alpha.com"),
                                        kept_index(pre, "other.com")};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(result.groups[0], expected);
  }
}

TEST(Pruning, MoreRequestsWinOverLower2ldId) {
  // At a dominance of 0.3 both referrers qualify; beta.com refers two of
  // member's three requests, so it wins although alpha.com's id is lower.
  net::Trace trace;
  for (const char* c : {"c1", "c2"}) {
    add_request(trace, c, "alpha.com", "/a.html");
    add_request(trace, c, "beta.com", "/b.html");
    add_request(trace, c, "other.com", "/o.js");
  }
  add_request(trace, "c1", "member.com", "/m.js", "UA", "alpha.com");
  add_request(trace, "c2", "member.com", "/m.js", "UA", "beta.com");
  add_request(trace, "c1", "member.com", "/n.js", "UA", "beta.com");
  trace.finalize();

  auto config = config_with();
  config.referrer_dominance = 0.3;
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "member.com"), kept_index(pre, "other.com")}};
  const auto result = prune(pre, groups, config);
  ASSERT_EQ(result.groups.size(), 1u);
  std::vector<std::uint32_t> expected{kept_index(pre, "beta.com"),
                                      kept_index(pre, "other.com")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.groups[0], expected);
}

TEST(Pruning, RedirectCycleIsLeftAlone) {
  net::Trace trace;
  for (const char* c : {"c1", "c2"}) {
    add_request(trace, c, "loop1.cc", "/a", "UA", "", 302);
    add_request(trace, c, "loop2.cc", "/b", "UA", "", 302);
  }
  trace.add_redirect(trace.intern_server("loop1.cc"), trace.intern_server("loop2.cc"));
  trace.add_redirect(trace.intern_server("loop2.cc"), trace.intern_server("loop1.cc"));
  trace.finalize();

  const auto config = config_with();
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "loop1.cc"), kept_index(pre, "loop2.cc")}};
  const auto result = prune(pre, groups, config);
  // A redirect cycle has no landing; members stay (they're suspicious!).
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size(), 2u);
}

TEST(Pruning, LandingFilteredByIdfStaysOut) {
  net::Trace trace;
  // Landing is popular (above IDF threshold); embedded widgets collapse to
  // it but it is not re-introduced into the group.
  for (int c = 0; c < 6; ++c) {
    add_request(trace, numbered("u", c), "popular.com", "/");
  }
  for (const char* c : {"c1", "c2"}) {
    add_request(trace, c, "w1.net", "/w1.js", "UA", "popular.com");
    add_request(trace, c, "w2.net", "/w2.js", "UA", "popular.com");
  }
  trace.finalize();

  auto config = config_with(/*idf=*/5);
  const auto pre = preprocess(trace, config);
  const std::vector<std::vector<std::uint32_t>> groups{
      {kept_index(pre, "w1.net"), kept_index(pre, "w2.net")}};
  const auto result = prune(pre, groups, config);
  EXPECT_TRUE(result.groups.empty());
  EXPECT_EQ(result.stats.groups_dropped, 1u);
}

}  // namespace
}  // namespace smash::core
