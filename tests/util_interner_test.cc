// Differential test of util::Interner against a reference std::map: ids are
// dense and in insertion order, name() round-trips, and find() agrees with
// the map before and after every insert, across many table growths and over
// strings that share one probe chain.
#include "util/interner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace smash::util {
namespace {

using Reference = std::map<std::string, std::uint32_t>;

std::optional<std::uint32_t> reference_find(const Reference& ref,
                                            const std::string& s) {
  const auto it = ref.find(s);
  if (it == ref.end()) return std::nullopt;
  return it->second;
}

// Every name of `ref` maps to its id both ways, and ids are 0..n-1.
void expect_agrees(const Interner& interner, const Reference& ref) {
  ASSERT_EQ(interner.size(), ref.size());
  EXPECT_EQ(interner.empty(), ref.empty());
  ASSERT_EQ(interner.names().size(), ref.size());
  for (const auto& [s, id] : ref) {
    ASSERT_LT(id, interner.size());
    EXPECT_EQ(interner.find(s), id) << "name of length " << s.size();
    EXPECT_EQ(interner.name(id), s);
    EXPECT_EQ(interner.names()[id], s);
  }
}

// Interns `s` into both sides, checking find() before and after.
void intern_both(Interner& interner, Reference& ref, const std::string& s) {
  ASSERT_EQ(interner.find(s), reference_find(ref, s));
  const auto expected = ref.emplace(s, static_cast<std::uint32_t>(ref.size()))
                            .first->second;
  ASSERT_EQ(interner.intern(s), expected);
  ASSERT_EQ(interner.find(s), expected);
  ASSERT_EQ(interner.size(), ref.size());
}

std::string random_string(Rng& rng, std::size_t max_len) {
  std::string s(rng.uniform(max_len + 1), '\0');
  for (auto& c : s) c = static_cast<char>(rng.uniform(256));
  return s;
}

// `count` distinct strings whose std::hash<std::string_view> agrees in the
// low 12 bits: they land in one probe chain at every table size up to 4096
// slots, i.e. across every growth of an interner of up to 2048 names.
std::vector<std::string> colliding_strings(std::size_t count) {
  std::vector<std::string> out;
  const std::size_t target =
      std::hash<std::string_view>{}(std::string_view("chain")) & 0xfff;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    std::string s = "chain";
    s += std::to_string(i);
    if ((std::hash<std::string_view>{}(s) & 0xfff) == target) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

// Two distinct strings whose hashes agree in all low 32 bits: they share a
// probe chain at every table size below 2^32 slots, so only a name
// comparison tells them apart.
std::pair<std::string, std::string> same_low32_hash_pair() {
  std::unordered_map<std::uint32_t, std::string> seen;
  for (std::uint64_t i = 0;; ++i) {
    std::string s = "tag";
    s += std::to_string(i);
    const auto low = static_cast<std::uint32_t>(std::hash<std::string_view>{}(s));
    const auto [it, inserted] = seen.emplace(low, s);
    if (!inserted) return {it->second, std::move(s)};
  }
}

TEST(Interner, FindOnEmptyInterner) {
  const Interner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_FALSE(interner.find("").has_value());
  EXPECT_FALSE(interner.find("a").has_value());
  EXPECT_THROW(interner.name(0), std::out_of_range);
}

TEST(Interner, EmptyEmbeddedNulAndLongStrings) {
  Interner interner;
  Reference ref;
  const std::vector<std::string> names = {
      "",
      std::string("a\0b", 3),
      std::string("a\0c", 3),
      "a",
      std::string(1, '\0'),
      std::string(2, '\0'),
      std::string(100000, 'x'),
      std::string(100000, 'x') + "y",
      std::string("\0\0\0\xff", 4),
  };
  for (const auto& s : names) intern_both(interner, ref, s);
  for (const auto& s : names) intern_both(interner, ref, s);  // all hits
  expect_agrees(interner, ref);
  // "a\0" is a prefix of two names and extends a third: still a miss.
  EXPECT_FALSE(interner.find(std::string_view("a\0b", 2)).has_value());
  EXPECT_EQ(interner.name(0), "");
}

TEST(Interner, SeededRandomStringsAcrossGrowths) {
  Rng rng(20150601);
  Interner interner;
  Reference ref;
  // Draw from a pool so that hits and misses interleave; check the whole
  // mapping after every insert through seven table growths.
  std::vector<std::string> pool;
  for (int i = 0; i < 600; ++i) pool.push_back(random_string(rng, 24));
  for (int step = 0; step < 900; ++step) {
    const std::string& s = pool[rng.uniform(pool.size())];
    intern_both(interner, ref, s);
    const std::string probe = random_string(rng, 24);
    ASSERT_EQ(interner.find(probe), reference_find(ref, probe));
    if (step % 7 == 0) expect_agrees(interner, ref);
  }
  for (const auto& s : pool) intern_both(interner, ref, s);
  expect_agrees(interner, ref);
}

TEST(Interner, EverySizeAcrossGrowthsKeepsInsertionOrder) {
  Rng rng(7);
  Interner interner;
  Reference ref;
  for (std::uint32_t n = 0; n < 1200; ++n) {
    std::string s = random_string(rng, 12);
    s += '#';
    s += std::to_string(n);  // distinct, so each insert is a new id
    ASSERT_FALSE(interner.find(s).has_value());
    ASSERT_EQ(interner.intern(s), n);
    ref.emplace(std::move(s), n);
    expect_agrees(interner, ref);
  }
}

TEST(Interner, StringsSharingOneProbeChain) {
  const auto chain = colliding_strings(64);
  Interner interner;
  Reference ref;
  for (const auto& s : chain) {
    intern_both(interner, ref, s);
    expect_agrees(interner, ref);
  }
  // Misses that hash into the same chain walk it to its end.
  for (const auto& s : colliding_strings(80)) {
    EXPECT_EQ(interner.find(s), reference_find(ref, s));
  }
  // Interleave the chain with unrelated names through more growths.
  Rng rng(11);
  for (int i = 0; i < 1500; ++i) intern_both(interner, ref, random_string(rng, 16));
  for (const auto& s : colliding_strings(96)) intern_both(interner, ref, s);
  expect_agrees(interner, ref);
}

TEST(Interner, SameLow32HashBitsStillDistinct) {
  const auto [a, b] = same_low32_hash_pair();
  ASSERT_NE(a, b);
  Interner interner;
  Reference ref;
  intern_both(interner, ref, a);
  intern_both(interner, ref, b);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) intern_both(interner, ref, random_string(rng, 8));
  expect_agrees(interner, ref);  // both survive growths, in their own slots
}

TEST(Interner, PrecomputedHashGivesSameIdsAsPlainIntern) {
  // One interner fed through intern(s), one through intern(s, hash(s)) and
  // one reserved for a third of the names up front, all against the
  // reference, through every table growth and with hits and misses
  // interleaved.
  Rng rng(35);
  Interner plain;
  Interner hashed;
  Interner reserved;
  reserved.reserve(500);
  Reference ref;
  std::vector<std::string> pool;
  for (int i = 0; i < 1500; ++i) pool.push_back(random_string(rng, 20));
  for (const auto& s : colliding_strings(40)) pool.push_back(s);
  for (int step = 0; step < 4000; ++step) {
    const std::string& s = pool[rng.uniform(pool.size())];
    ASSERT_EQ(hashed.find(s), reference_find(ref, s));
    const auto expected =
        ref.emplace(s, static_cast<std::uint32_t>(ref.size())).first->second;
    ASSERT_EQ(hashed.intern(s, Interner::hash(s)), expected);
    ASSERT_EQ(plain.intern(s), expected);
    ASSERT_EQ(reserved.intern(s, Interner::hash(s)), expected);
    ASSERT_EQ(hashed.find(s), expected);
    if (step % 97 == 0) {
      expect_agrees(hashed, ref);
      expect_agrees(reserved, ref);
    }
  }
  expect_agrees(hashed, ref);
  expect_agrees(reserved, ref);
  EXPECT_EQ(hashed.names(), plain.names());
  EXPECT_EQ(Interner::hash("file.php"),
            std::hash<std::string_view>{}(std::string_view("file.php")));
}

TEST(Interner, CopiedAndMovedInternersStayIndependentAndUsable) {
  Rng rng(3);
  Interner original;
  Reference ref;
  for (int i = 0; i < 300; ++i) intern_both(original, ref, random_string(rng, 10));

  Interner copy = original;
  Reference copy_ref = ref;
  expect_agrees(copy, copy_ref);
  for (int i = 0; i < 300; ++i) intern_both(copy, copy_ref, random_string(rng, 10));
  expect_agrees(copy, copy_ref);
  expect_agrees(original, ref);  // the copy's growth left the original alone

  Interner assigned;
  assigned.intern("overwritten");
  assigned = original;
  expect_agrees(assigned, ref);

  Interner moved = std::move(original);
  expect_agrees(moved, ref);
  intern_both(moved, ref, "after-move");
  expect_agrees(moved, ref);

  Interner move_assigned;
  move_assigned.intern("overwritten");
  move_assigned = std::move(moved);
  expect_agrees(move_assigned, ref);
  intern_both(move_assigned, ref, "after-move-assign");
  expect_agrees(move_assigned, ref);
}

}  // namespace
}  // namespace smash::util
