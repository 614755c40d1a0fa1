#include "net/http.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "preprocess_oracle.h"
#include "util/rng.h"

namespace smash::net {
namespace {

struct UriFileCase {
  std::string path;
  std::string expected;
};

// Names each case by its path, so test IDs stay the same from build to build
// (gtest's default prints the struct's raw bytes, heap pointers included).
void PrintTo(const UriFileCase& c, std::ostream* os) { *os << c.path; }

class UriFileTest : public ::testing::TestWithParam<UriFileCase> {};

TEST_P(UriFileTest, ExtractsPerPaperDefinition) {
  EXPECT_EQ(uri_file(GetParam().path), GetParam().expected);
}

// "the substring of a URI starting from the last '/' until the end before
// the question mark" (paper §III-B2).
INSTANTIATE_TEST_SUITE_P(
    Cases, UriFileTest,
    ::testing::Values(
        UriFileCase{"/images/news.php?p=1&id=2", "news.php"},
        UriFileCase{"/images/file.txt", "file.txt"},
        UriFileCase{"/", ""},
        UriFileCase{"/?x=1", ""},
        UriFileCase{"/a/b/c/setup.php", "setup.php"},
        UriFileCase{"/wp-content/uploads/sm3.php", "sm3.php"},
        UriFileCase{"login.php", "login.php"},        // no slash at all
        UriFileCase{"/dir.with.dots/", ""},           // trailing slash
        UriFileCase{"/x/y.php?q=/fake/path.html", "y.php"}));  // '?' first

TEST(UriQuery, ExtractsAfterQuestionMark) {
  EXPECT_EQ(uri_query("/x?a=1&b=2"), "a=1&b=2");
  EXPECT_EQ(uri_query("/x"), "");
  EXPECT_EQ(uri_query("/x?"), "");
}

TEST(QueryParams, ParsesPairsInOrder) {
  const auto params = test::query_params("/x.php?p=16435&id=21799517&e=0");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].first, "p");
  EXPECT_EQ(params[0].second, "16435");
  EXPECT_EQ(params[1].first, "id");
  EXPECT_EQ(params[2].first, "e");
  EXPECT_EQ(params[2].second, "0");
}

TEST(QueryParams, HandlesValuelessKeysAndEmpties) {
  const auto params = test::query_params("/x?flag&a=1&&b=");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].first, "flag");
  EXPECT_EQ(params[0].second, "");
  EXPECT_EQ(params[2].first, "b");
  EXPECT_EQ(params[2].second, "");
}

TEST(ParamPattern, BlanksValues) {
  // The paper's Bagle pattern: "p=[]&id=[]&e=[]".
  EXPECT_EQ(param_pattern("/news.php?p=16435&id=21799517&e=0"), "p=&id=&e=");
  EXPECT_EQ(param_pattern("/x"), "");
  EXPECT_EQ(param_pattern("/x?a=1"), "a=");
}

TEST(ParamPattern, OrderSensitive) {
  EXPECT_NE(param_pattern("/x?a=1&b=2"), param_pattern("/x?b=2&a=1"));
}

TEST(ParamPattern, IntoReusedBufferMatchesReferenceOnRandomPaths) {
  // Paths from a small alphabet of query pieces: empty pairs, valueless
  // keys, doubled separators, '=' inside values, '?' with nothing after.
  util::Rng rng(74);
  const std::vector<std::string> pieces = {"", "a", "id", "=", "1", "&", "&&", "p=", "=x"};
  std::string buffer = "left over from an earlier call";
  for (int i = 0; i < 5000; ++i) {
    std::string path = "/d/f.php";
    if (rng.bernoulli(0.8)) path += '?';
    const auto n = rng.uniform(6);
    for (std::uint64_t k = 0; k < n; ++k) path += pieces[rng.uniform(pieces.size())];
    param_pattern_into(path, buffer);
    ASSERT_EQ(buffer, test::param_pattern_reference(path)) << path;
    ASSERT_EQ(param_pattern(path), buffer) << path;
  }
}

TEST(StatusHelpers, RedirectAndError) {
  EXPECT_TRUE(is_redirect_status(301));
  EXPECT_TRUE(is_redirect_status(302));
  EXPECT_TRUE(is_redirect_status(307));
  EXPECT_FALSE(is_redirect_status(200));
  EXPECT_FALSE(is_redirect_status(404));
  EXPECT_TRUE(is_error_status(404));
  EXPECT_TRUE(is_error_status(503));
  EXPECT_FALSE(is_error_status(200));
  EXPECT_FALSE(is_error_status(302));
}

TEST(MethodName, Names) {
  EXPECT_EQ(method_name(Method::kGet), "GET");
  EXPECT_EQ(method_name(Method::kPost), "POST");
  EXPECT_EQ(method_name(Method::kHead), "HEAD");
}

}  // namespace
}  // namespace smash::net
