#include "dns/domain.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace smash::dns {

namespace {

// Embedded subset of the public-suffix list covering every suffix that
// appears in the paper's case studies and in our synthetic workloads, plus
// dynamic-DNS providers the paper calls out in §VI as aggregation hazards.
constexpr std::array<std::string_view, 26> kSingleLabelSuffixes = {
    "com", "net",  "org", "info", "biz", "edu", "gov", "mil", "int",
    "it",  "sk",   "nl",  "uk",   "cz",  "cc",  "de",  "fr",  "ru",
    "cn",  "br",   "io",  "co",   "us",  "eu",  "tv",  "me"};

constexpr std::array<std::string_view, 12> kMultiLabelSuffixes = {
    "co.uk",      "org.uk",   "ac.uk",     "gov.uk",
    "com.br",     "com.cn",   "com.ru",
    // Free/dynamic hosting zones where every registrant gets a third-level
    // name; aggregating these to the zone would merge unrelated parties.
    "cz.cc",      "co.cc",    "dyndns.org", "no-ip.org", "blogspot.com"};

}  // namespace

bool is_ipv4_literal(std::string_view host) noexcept {
  int dots = 0;
  int digits_in_octet = 0;
  int octet_value = 0;
  for (char c : host) {
    if (c == '.') {
      if (digits_in_octet == 0) return false;
      ++dots;
      digits_in_octet = 0;
      octet_value = 0;
    } else if (c >= '0' && c <= '9') {
      if (++digits_in_octet > 3) return false;
      octet_value = octet_value * 10 + (c - '0');
      if (octet_value > 255) return false;
    } else {
      return false;
    }
  }
  return dots == 3 && digits_in_octet > 0;
}

bool is_public_suffix(std::string_view suffix) noexcept {
  for (auto s : kMultiLabelSuffixes) {
    if (s == suffix) return true;
  }
  for (auto s : kSingleLabelSuffixes) {
    if (s == suffix) return true;
  }
  return false;
}

std::string_view effective_2ld_view(std::string_view host) noexcept {
  if (is_ipv4_literal(host)) return host;
  constexpr auto npos = std::string_view::npos;
  // The dot before the label that ends at `dot`, or npos.
  const auto dot_before = [host](std::size_t dot) {
    return dot == 0 || dot == npos ? npos : host.rfind('.', dot - 1);
  };

  // The longest public suffix that is a proper suffix of `host`: a listed
  // two-label suffix, else the last label (listed or not). `suffix_dot`
  // is the dot in front of it.
  const std::size_t last = host.rfind('.');
  if (last == npos) return host;  // single label
  const std::size_t second = dot_before(last);
  const std::string_view two = second == npos ? host : host.substr(second + 1);
  bool two_is_suffix = false;
  for (auto s : kMultiLabelSuffixes) {
    if (s == two) { two_is_suffix = true; break; }
  }
  const std::size_t suffix_dot = two_is_suffix ? second : last;

  // Keep the suffix plus one label; a name with no label to drop stays
  // whole.
  const std::size_t cut = dot_before(suffix_dot);
  if (cut == npos) return host;
  std::string_view kept = host.substr(cut + 1);
  kept.remove_prefix(std::min(kept.find_first_not_of('.'), kept.size()));
  return kept;
}

std::string effective_2ld(std::string_view host) {
  return std::string(effective_2ld_view(host));
}

bool is_valid_hostname(std::string_view host) noexcept {
  if (host.empty() || host.front() == '.' || host.back() == '.') return false;
  bool label_started = false;
  for (char c : host) {
    if (c == '.') {
      if (!label_started) return false;
      label_started = false;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_') {
      label_started = true;
    } else {
      return false;
    }
  }
  return label_started;
}

}  // namespace smash::dns
