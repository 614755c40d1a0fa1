// String interning: maps strings to dense uint32_t ids and back.
//
// All hot-path structures in SMASH (similarity joins, Louvain, ASH sets)
// operate on dense ids; strings appear only at the I/O boundary and in
// reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace smash::util {

// Each name is stored once, in `strings_` (insertion order = id order).
// The lookup side is a flat open-addressing table of `id + 1` slots over
// those names (0 = empty), linear probing, load kept at or below 0.5, so
// `intern` and `find` hash the string_view they are given and never
// allocate on a hit.
class Interner {
 public:
  // Returns the id for `s`, inserting it if new. Ids are assigned densely
  // in insertion order starting at 0.
  std::uint32_t intern(std::string_view s) { return intern(s, hash(s)); }

  // intern(s) for a caller that already holds `h == hash(s)`, e.g. from a
  // parallel pass over the inputs. Same ids as intern(s).
  std::uint32_t intern(std::string_view s, std::size_t h) {
    if (2 * (strings_.size() + 1) > slots_.size()) grow();
    std::uint32_t& slot = slots_[probe(s, h)];
    if (slot != 0) return slot - 1;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    slot = id + 1;
    return id;
  }

  // Sizes the table and the name list for `n` names, so interning up to
  // `n` names neither rehashes nor moves a name. Ids are unaffected.
  void reserve(std::size_t n) {
    strings_.reserve(n);
    std::size_t slots = 16;
    while (slots < 2 * (n + 1)) slots *= 2;
    if (slots > slots_.size()) rebuild(slots);
  }

  // Starts pulling the table slot of a name with hash `h` into the cache,
  // for a caller that interns or finds that name a little later.
  void prefetch(std::size_t h) const noexcept {
    if (!slots_.empty()) __builtin_prefetch(&slots_[h & (slots_.size() - 1)]);
  }

  // Lookup without insertion.
  std::optional<std::uint32_t> find(std::string_view s) const {
    if (slots_.empty()) return std::nullopt;
    const std::uint32_t slot = slots_[probe(s, hash(s))];
    if (slot == 0) return std::nullopt;
    return slot - 1;
  }

  const std::string& name(std::uint32_t id) const {
    if (id >= strings_.size()) throw std::out_of_range("Interner::name: bad id");
    return strings_[id];
  }

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(strings_.size());
  }

  bool empty() const noexcept { return strings_.empty(); }

  const std::vector<std::string>& names() const noexcept { return strings_; }

  // The hash the table is keyed by.
  static std::size_t hash(std::string_view s) noexcept {
    return std::hash<std::string_view>{}(s);
  }

 private:
  // Index of the slot holding `s` (whose hash is `h`), or of the empty slot
  // that ends its probe chain. The table is never full, so the walk
  // terminates.
  std::size_t probe(std::string_view s, std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0 || strings_[slot - 1] == s) return i;
    }
  }

  // Doubles the table (power of two, at least 16 slots).
  void grow() { rebuild(slots_.empty() ? 16 : 2 * slots_.size()); }

  // Rebuilds the table at `slots` (a power of two), reinserting every id
  // in id order.
  void rebuild(std::size_t slots) {
    slots_.assign(slots, 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < strings_.size(); ++id) {
      std::size_t i = hash(strings_[id]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::vector<std::string> strings_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace smash::util
