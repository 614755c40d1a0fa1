#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "core/file_classifier.h"
#include "dns/dga.h"
#include "dns/domain.h"
#include "preprocess_oracle.h"
#include "util/rng.h"

namespace smash::dns {
namespace {

struct TwoLdCase {
  std::string host;
  std::string expected;
};

// Names each case by its host, so test IDs stay the same from build to build
// (gtest's default prints the struct's raw bytes, heap pointers included).
void PrintTo(const TwoLdCase& c, std::ostream* os) { *os << c.host; }

class Effective2ldTest : public ::testing::TestWithParam<TwoLdCase> {};

TEST_P(Effective2ldTest, Aggregates) {
  EXPECT_EQ(effective_2ld(GetParam().host), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Effective2ldTest,
    ::testing::Values(
        TwoLdCase{"a.xyz.com", "xyz.com"},            // paper's own example
        TwoLdCase{"b.xyz.com", "xyz.com"},
        TwoLdCase{"cdn1.fbcdn.net", "fbcdn.net"},
        TwoLdCase{"ec2-1-2-3.amazonaws.com", "amazonaws.com"},
        TwoLdCase{"deep.a.b.example.com", "example.com"},
        TwoLdCase{"xyz.com", "xyz.com"},              // already a 2LD
        TwoLdCase{"com", "com"},                      // bare suffix
        TwoLdCase{"localhost", "localhost"},          // single label
        TwoLdCase{"4k0t111m.cz.cc", "4k0t111m.cz.cc"},  // Zeus zone (Table X)
        TwoLdCase{"www.4k0t111m.cz.cc", "4k0t111m.cz.cc"},
        TwoLdCase{"shop.example.co.uk", "example.co.uk"},
        TwoLdCase{"user.dyndns.org", "user.dyndns.org"},
        TwoLdCase{"10.1.2.3", "10.1.2.3"},            // IP literal unchanged
        TwoLdCase{"a.b.unknowntld", "b.unknowntld"},
        // Malformed names: empty labels at the front of the kept part drop
        // out with their dots, and a name too short to trim stays as it is.
        TwoLdCase{"x..com", "com"},
        TwoLdCase{"a.", "a."},
        TwoLdCase{".com", ".com"},
        TwoLdCase{"a..b.co.uk", "b.co.uk"}));

TEST_P(Effective2ldTest, ViewMatchesOwnedString) {
  const std::string& host = GetParam().host;
  const std::string_view view = effective_2ld_view(host);
  EXPECT_EQ(view, GetParam().expected);
  // A suffix of the host itself, not a copy.
  EXPECT_EQ(view.data() + view.size(), host.data() + host.size());
}

// effective_2ld_view against the split-and-join oracle on seeded random
// names built from labels that hit every branch: listed one- and two-label
// suffixes, unknown TLDs, empty labels (leading, trailing, doubled dots),
// and dotted quads.
TEST(Effective2ldView, SeededRandomHostsMatchReference) {
  util::Rng rng(20150706);
  const std::vector<std::string> labels = {
      "",    "",  "a",  "xyz", "www",  "com",     "co",       "uk", "cz",
      "cc",  "org", "dyndns", "blogspot", "no-ip", "10", "255", "256", "1"};
  for (int i = 0; i < 20000; ++i) {
    std::string host;
    const auto n = rng.uniform(6);  // 0 labels = the empty name
    for (std::uint64_t k = 0; k < n; ++k) {
      if (k > 0) host += '.';
      host += labels[rng.uniform(labels.size())];
    }
    ASSERT_EQ(effective_2ld_view(host), test::effective_2ld_reference(host)) << host;
    ASSERT_EQ(effective_2ld(host), test::effective_2ld_reference(host)) << host;
  }
}

TEST(IsIpv4Literal, AcceptsAndRejects) {
  EXPECT_TRUE(is_ipv4_literal("1.2.3.4"));
  EXPECT_TRUE(is_ipv4_literal("255.255.255.255"));
  EXPECT_FALSE(is_ipv4_literal("256.1.1.1"));
  EXPECT_FALSE(is_ipv4_literal("1.2.3"));
  EXPECT_FALSE(is_ipv4_literal("1.2.3.4.5"));
  EXPECT_FALSE(is_ipv4_literal("a.b.c.d"));
  EXPECT_FALSE(is_ipv4_literal("1..2.3"));
  EXPECT_FALSE(is_ipv4_literal(""));
}

TEST(IsValidHostname, Basics) {
  EXPECT_TRUE(is_valid_hostname("a-b.example.com"));
  EXPECT_TRUE(is_valid_hostname("x"));
  EXPECT_FALSE(is_valid_hostname(".x.com"));
  EXPECT_FALSE(is_valid_hostname("x.com."));
  EXPECT_FALSE(is_valid_hostname("a..b"));
  EXPECT_FALSE(is_valid_hostname("sp ace.com"));
  EXPECT_FALSE(is_valid_hostname(""));
}

TEST(IsPublicSuffix, KnowsBothKinds) {
  EXPECT_TRUE(is_public_suffix("com"));
  EXPECT_TRUE(is_public_suffix("co.uk"));
  EXPECT_TRUE(is_public_suffix("cz.cc"));
  EXPECT_FALSE(is_public_suffix("example.com"));
}

TEST(ZeusStyleFamily, SiblingsShareScaffold) {
  util::Rng rng(4);
  const auto family = zeus_style_family(rng, 8);
  ASSERT_EQ(family.size(), 8u);
  std::set<std::string> unique(family.begin(), family.end());
  EXPECT_EQ(unique.size(), 8u);  // all distinct
  for (const auto& d : family) {
    EXPECT_TRUE(d.ends_with(".cz.cc"));
    // Each sibling keeps its own 2LD in the free zone.
    EXPECT_EQ(effective_2ld(d), d);
  }
  // Siblings share the stem: common prefix of first two is >= 4 chars.
  const auto& a = family[0];
  const auto& b = family[1];
  std::size_t common = 0;
  while (common < a.size() && common < b.size() && a[common] == b[common]) ++common;
  EXPECT_GE(common, 4u);
}

TEST(RandomDomains, ValidAndDiverse) {
  util::Rng rng(9);
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) {
    const auto d = random_word_domain(rng);
    EXPECT_TRUE(is_valid_hostname(d));
    EXPECT_TRUE(d.ends_with(".com"));
    seen.insert(d);
  }
  EXPECT_GT(seen.size(), 40u);  // collisions should be rare
  const auto alnum = random_alnum_domain(rng, 10, "info");
  EXPECT_TRUE(is_valid_hostname(alnum));
  EXPECT_EQ(alnum.size(), 10u + 5u);  // label + ".info"
  EXPECT_THROW(random_alnum_domain(rng, 0), std::invalid_argument);
}

TEST(RandomIpv4, AlwaysValid) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(is_ipv4_literal(random_ipv4(rng)));
  }
}

TEST(ObfuscatedFilenameFamily, LongAndCosineSimilar) {
  util::Rng rng(6);
  const auto family = obfuscated_filename_family(rng, 6, /*min_len=*/30);
  ASSERT_EQ(family.size(), 6u);
  std::set<std::string> unique(family.begin(), family.end());
  EXPECT_GE(unique.size(), 5u);  // near-certainly distinct strings
  for (const auto& f : family) EXPECT_GT(f.size(), 25u);
  // Pairwise similar under the paper's long-filename rule (eqs. 4-6).
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (std::size_t j = i + 1; j < family.size(); ++j) {
      EXPECT_GT(core::char_frequency_cosine(family[i], family[j]), 0.8)
          << family[i] << " vs " << family[j];
    }
  }
}

TEST(FluxIpPool, DrawsOverlapAcrossDomains) {
  FluxIpPool pool(util::Rng(12), 5);
  EXPECT_EQ(pool.pool().size(), 5u);
  const auto a = pool.draw(3);
  const auto b = pool.draw(3);
  EXPECT_EQ(a.size(), 3u);
  // Two draws of 3 from a pool of 5 must share at least one address.
  std::set<std::string> sa(a.begin(), a.end());
  int shared = 0;
  for (const auto& ip : b) shared += sa.count(ip);
  EXPECT_GE(shared, 1);
  // Oversized draw clamps to the pool.
  EXPECT_EQ(pool.draw(100).size(), 5u);
  EXPECT_THROW(FluxIpPool(util::Rng(1), 0), std::invalid_argument);
}

}  // namespace
}  // namespace smash::dns
