#include "core/dimensions.h"

#include <gtest/gtest.h>

#include "core/correlation.h"

#include <set>

#include "test_helpers.h"

namespace smash::core {
namespace {

using test::add_request;
using test::numbered;
using test::resolve;

SmashConfig small_config() {
  SmashConfig config;
  config.idf_threshold = 100;
  return config;
}

// Collect the set of 2LD names in each ASH of a dimension.
std::vector<std::set<std::string>> ash_names(const PreprocessResult& pre,
                                             const DimensionAshes& dim) {
  std::vector<std::set<std::string>> out;
  for (const auto& ash : dim.ashes) {
    std::set<std::string> names;
    for (auto member : ash.members) {
      names.insert(pre.agg.server_name(pre.kept[member]));
    }
    out.push_back(std::move(names));
  }
  return out;
}

bool has_ash_containing(const std::vector<std::set<std::string>>& ashes,
                        const std::set<std::string>& wanted) {
  for (const auto& ash : ashes) {
    bool all = true;
    for (const auto& name : wanted) all = all && ash.count(name) > 0;
    if (all) return true;
  }
  return false;
}

TEST(ClientDimension, GroupsServersWithSharedClients) {
  net::Trace trace;
  // Campaign: two bots hitting three servers (Fig. 1a shape).
  for (const char* bot : {"bot1", "bot2"}) {
    for (const char* host : {"cnc1.com", "cnc2.com", "cnc3.com"}) {
      add_request(trace, bot, host, "/x.php");
    }
  }
  // Unrelated benign pair with disjoint clients.
  add_request(trace, "user1", "shop.com", "/s.html");
  add_request(trace, "user2", "news.com", "/n.html");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry empty_registry;
  const auto dim = mine_dimension(Dimension::kClient, pre, empty_registry,
                                  small_config());
  const auto ashes = ash_names(pre, dim);
  EXPECT_TRUE(has_ash_containing(ashes, {"cnc1.com", "cnc2.com", "cnc3.com"}));
  // The benign servers share no clients: no herd contains them.
  EXPECT_FALSE(has_ash_containing(ashes, {"shop.com", "news.com"}));
}

TEST(ClientDimension, EdgeThresholdSeparatesWeakOverlap) {
  net::Trace trace;
  // a.com and b.com share 1 of their 3 clients each: eq. (1) = (1/3)^2.
  for (const char* c : {"c1", "c2", "shared"}) add_request(trace, c, "a.com", "/a");
  for (const char* c : {"c3", "c4", "shared"}) add_request(trace, c, "b.com", "/b");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  auto config = small_config();
  config.client_edge_threshold = 0.2;
  auto dim = mine_dimension(Dimension::kClient, pre, registry, config);
  EXPECT_TRUE(dim.ashes.empty());
  config.client_edge_threshold = 0.1;  // (1/3)^2 ~= 0.111 passes now
  dim = mine_dimension(Dimension::kClient, pre, registry, config);
  EXPECT_EQ(dim.ashes.size(), 1u);
}

TEST(IpDimension, GroupsFluxSiblings) {
  net::Trace trace;
  add_request(trace, "c1", "flux1.cc", "/");
  add_request(trace, "c2", "flux2.cc", "/");
  add_request(trace, "c3", "plain.com", "/");
  for (const char* host : {"flux1.cc", "flux2.cc"}) {
    resolve(trace, host, "6.6.6.6");
    resolve(trace, host, "7.7.7.7");
  }
  resolve(trace, "plain.com", "8.8.8.8");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dim = mine_dimension(Dimension::kIp, pre, registry, small_config());
  const auto ashes = ash_names(pre, dim);
  EXPECT_TRUE(has_ash_containing(ashes, {"flux1.cc", "flux2.cc"}));
  EXPECT_FALSE(has_ash_containing(ashes, {"plain.com"}));
}

TEST(FileDimension, GroupsSharedShortFilenames) {
  net::Trace trace;
  add_request(trace, "c1", "s1.com", "/a/login.php");
  add_request(trace, "c2", "s2.com", "/b/login.php");  // same file, other path
  add_request(trace, "c3", "s3.com", "/c/other.php");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dim = mine_dimension(Dimension::kFile, pre, registry, small_config());
  const auto ashes = ash_names(pre, dim);
  EXPECT_TRUE(has_ash_containing(ashes, {"s1.com", "s2.com"}));
  EXPECT_FALSE(has_ash_containing(ashes, {"s3.com"}));
}

TEST(FileDimension, GroupsObfuscatedLongFilenames) {
  net::Trace trace;
  // Same character multiset, shuffled: cosine 1.0, strings differ (Fig. 4).
  add_request(trace, "c1", "ob1.com", "/x/aabbccddeeffaabbccddeeffaabb12.php");
  add_request(trace, "c2", "ob2.com", "/y/bbaaddccffeebbaaddccffeebbaa21.php");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dim = mine_dimension(Dimension::kFile, pre, registry, small_config());
  EXPECT_TRUE(has_ash_containing(ash_names(pre, dim), {"ob1.com", "ob2.com"}));
}

TEST(FileDimension, PopularFileCapSuppressesStopFiles) {
  net::Trace trace;
  for (int s = 0; s < 10; ++s) {
    add_request(trace, numbered("c", s), numbered("srv", s) + ".com",
                "/index.html");
  }
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  auto config = small_config();
  config.file_postings_cap = 5;  // index.html shared by 10 > 5: ignored
  auto dim = mine_dimension(Dimension::kFile, pre, registry, config);
  EXPECT_TRUE(dim.ashes.empty());
  config.file_postings_cap = 100;
  dim = mine_dimension(Dimension::kFile, pre, registry, config);
  EXPECT_EQ(dim.ashes.size(), 1u);  // now they all associate
}

TEST(WhoisDimension, RequiresTwoSharedNonProxyFields) {
  net::Trace trace;
  add_request(trace, "c1", "w1.com", "/");
  add_request(trace, "c2", "w2.com", "/");
  add_request(trace, "c3", "w3.com", "/");
  trace.finalize();

  whois::Registry registry;
  registry.add_proxy_value("PROXY");
  whois::Record shared;
  shared.email = "x@y.com";
  shared.phone = "+1.555";
  shared.registrant = "PROXY";
  registry.add("w1.com", shared);
  registry.add("w2.com", shared);
  whois::Record other;
  other.email = "x@y.com";  // only ONE shared field with w1/w2
  other.phone = "+9.999";
  registry.add("w3.com", other);

  const auto pre = preprocess(trace, small_config());
  const auto dim = mine_dimension(Dimension::kWhois, pre, registry, small_config());
  const auto ashes = ash_names(pre, dim);
  EXPECT_TRUE(has_ash_containing(ashes, {"w1.com", "w2.com"}));
  EXPECT_FALSE(has_ash_containing(ashes, {"w3.com"}));
}

TEST(ParamDimension, GroupsSharedParameterPatterns) {
  net::Trace trace;
  // Same parameter structure, different files (the Cycbot FN shape).
  add_request(trace, "c1", "p1.com", "/a/x1.php?p=11&id=22&e=0");
  add_request(trace, "c2", "p2.com", "/b/x2.php?p=99&id=44&e=1");
  add_request(trace, "c3", "p3.com", "/c/x3.php?other=1");
  trace.finalize();

  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dim = mine_dimension(Dimension::kParam, pre, registry, small_config());
  const auto ashes = ash_names(pre, dim);
  EXPECT_TRUE(has_ash_containing(ashes, {"p1.com", "p2.com"}));
  EXPECT_FALSE(has_ash_containing(ashes, {"p3.com"}));
}

TEST(ParamDimension, OffByDefaultOnWhenEnabled) {
  net::Trace trace;
  add_request(trace, "c1", "a.com", "/x.php?p=1");
  trace.finalize();
  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  EXPECT_EQ(mine_all_dimensions(pre, registry, small_config()).size(), 4u);
  auto config = small_config();
  config.enable_param_dimension = true;
  const auto dims = mine_all_dimensions(pre, registry, config);
  ASSERT_EQ(dims.size(), 5u);
  EXPECT_EQ(dims[4].dimension, Dimension::kParam);
}

TEST(ParamDimension, RecoversNoSecondaryCampaignEndToEnd) {
  // A herd sharing bots + parameter pattern but nothing else: invisible to
  // the paper's four dimensions, detected with the extension enabled.
  net::Trace trace;
  for (int s = 0; s < 10; ++s) {
    const std::string host = "cy" + std::to_string(s) + ".com";
    for (const char* bot : {"b1", "b2"}) {
      add_request(trace, bot, host,
                  "/u" + std::to_string(s) + "/f" + std::to_string(s) +
                      ".php?hwid=1&ver=2&cnt=3");
    }
  }
  trace.finalize();
  whois::Registry registry;

  auto config = small_config();
  auto pre = preprocess(trace, config);
  auto dims = mine_all_dimensions(pre, registry, config);
  EXPECT_TRUE(correlate(pre, dims, config).groups.empty());

  config.enable_param_dimension = true;
  dims = mine_all_dimensions(pre, registry, config);
  const auto corr = correlate(pre, dims, config);
  ASSERT_EQ(corr.groups.size(), 1u);
  EXPECT_EQ(corr.groups[0].size(), 10u);
}

TEST(MineAllDimensions, ReturnsFourInOrder) {
  net::Trace trace;
  add_request(trace, "c1", "a.com", "/x.php");
  trace.finalize();
  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dims = mine_all_dimensions(pre, registry, small_config());
  ASSERT_EQ(dims.size(), 4u);
  EXPECT_EQ(dims[0].dimension, Dimension::kClient);
  EXPECT_EQ(dims[1].dimension, Dimension::kFile);
  EXPECT_EQ(dims[2].dimension, Dimension::kIp);
  EXPECT_EQ(dims[3].dimension, Dimension::kWhois);
  for (const auto& dim : dims) {
    EXPECT_EQ(dim.ash_of.size(), pre.kept.size());
  }
}

TEST(DimensionAshes, DensityIsOneForCliqueHerds) {
  net::Trace trace;
  for (const char* bot : {"b1", "b2"}) {
    for (const char* host : {"x1.com", "x2.com", "x3.com", "x4.com"}) {
      add_request(trace, bot, host, "/f.php");
    }
  }
  trace.finalize();
  const auto pre = preprocess(trace, small_config());
  whois::Registry registry;
  const auto dim =
      mine_dimension(Dimension::kClient, pre, registry, small_config());
  ASSERT_EQ(dim.ashes.size(), 1u);
  EXPECT_DOUBLE_EQ(dim.ashes[0].density, 1.0);
  EXPECT_EQ(dim.num_herded_servers(), 4u);
}

}  // namespace
}  // namespace smash::core
