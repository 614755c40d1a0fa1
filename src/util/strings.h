// Small string helpers shared across modules. All functions are pure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smash::util {

// Split `s` on `sep`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> split(std::string_view s, char sep);

// Split, dropping empty fields.
std::vector<std::string_view> split_nonempty(std::string_view s, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

// Render a double with fixed decimals (for table output).
std::string format_fixed(double v, int decimals);

// Thousands-separated integer rendering, e.g. 28544473 -> "28,544,473",
// matching the paper's table style.
std::string with_commas(std::uint64_t v);

// Transparent hash for string-keyed unordered containers: with
// std::equal_to<> it lets find/count take a std::string_view without
// building a std::string per probe. Hash values equal std::hash<std::string>'s,
// so bucket layout and iteration order match a plain string-keyed map.
// (Not noexcept on purpose: libstdc++ then caches hash codes in the nodes,
// as it does for std::hash<std::string>.)
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;
using StringSet = std::unordered_set<std::string, StringHash, std::equal_to<>>;

}  // namespace smash::util
