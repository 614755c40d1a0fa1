// Golden batch output: SmashPipeline::run at the default SmashConfig on each
// paper-scale preset must find exactly the campaigns pinned in
// tests/golden/<preset>.txt, at 1 and at 4 threads. The file holds the
// campaign count and a 64-bit FNV-1a digest of the campaigns' server-name
// sets (names sorted within a campaign, campaigns sorted). Any change to
// what is mined shows up here; regenerating a golden is a deliberate act
// recorded with its reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "synth/config.h"
#include "synth/world.h"

#ifndef SMASH_GOLDEN_DIR
#error "SMASH_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace smash::core {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// "campaigns <n>\ndigest <16 hex digits>\n" for one run.
std::string golden_of(const SmashResult& result) {
  std::vector<std::vector<std::string>> campaigns;
  for (const auto& campaign : result.campaigns) {
    std::vector<std::string> names;
    for (const auto server : campaign.servers) names.push_back(result.server_name(server));
    std::sort(names.begin(), names.end());
    campaigns.push_back(std::move(names));
  }
  std::sort(campaigns.begin(), campaigns.end());

  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& names : campaigns) {
    for (const auto& name : names) hash = fnv1a(hash, name + "\n");
    hash = fnv1a(hash, "\n");  // campaign boundary
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash));
  return "campaigns " + std::to_string(campaigns.size()) + "\ndigest " + digest + "\n";
}

std::string read_golden(const std::string& preset) {
  const std::string path = std::string(SMASH_GOLDEN_DIR) + "/" + preset + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void expect_golden(const std::string& preset, const synth::WorldConfig& world) {
  const auto ds = synth::generate_world(world);
  const std::string expected = read_golden(preset);
  for (const unsigned threads : {1u, 4u}) {
    SmashConfig config;
    config.num_threads = threads;
    const auto result = SmashPipeline(config).run(ds.trace, ds.whois);
    EXPECT_EQ(golden_of(result), expected)
        << preset << " at " << threads << " thread(s) differs from "
        << "tests/golden/" << preset << ".txt";
  }
}

TEST(Golden, Data2011Day) { expect_golden("data2011day", synth::data2011day()); }
TEST(Golden, Data2012Day) { expect_golden("data2012day", synth::data2012day()); }
TEST(Golden, Data2012Week) { expect_golden("data2012week", synth::data2012week()); }

}  // namespace
}  // namespace smash::core
