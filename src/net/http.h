// HTTP request records and URI helpers.
//
// SMASH is a passive log-analysis system: the only inputs it needs from the
// network substrate are, per request, the (client, server-hostname, URI,
// referrer, status, User-Agent) tuple, plus the hostname -> IP resolution
// observed for each server (paper §III, §IV-A). This header defines those
// records and the URI-file extraction rule of §III-B2.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace smash::net {

enum class Method : std::uint8_t { kGet, kPost, kHead };

std::string_view method_name(Method m) noexcept;

struct HttpRequest {
  std::uint32_t client = 0;  // dense client id (see Trace)
  std::uint32_t server = 0;  // dense server id, the Host header as requested
  std::uint32_t day = 0;     // day index within the trace (0-based)
  Method method = Method::kGet;
  std::uint16_t status = 200;
  std::string path;        // URI path incl. optional query, e.g. "/a/b.php?x=1"
  std::string user_agent;  // may be "-" (absent), matching the paper's Table IX
  std::string referrer;    // referring *hostname*, empty if none
};

// The paper's URI-file definition (§III-B2): "the substring of a URI
// starting from the last '/' until the end before the question mark".
// uri_file("/images/news.php?p=1") == "news.php"; uri_file("/") == "".
std::string_view uri_file(std::string_view path) noexcept;

// Query string after '?', or empty.
std::string_view uri_query(std::string_view path) noexcept;

// Parameter *pattern*: the ordered keys with values blanked, e.g.
// "/x.php?p=16435&id=217&e=0" -> "p=&id=&e=".  §V-A2 uses shared parameter
// patterns to confirm "New Servers" against IDS-confirmed ones.
std::string param_pattern(std::string_view path);

// param_pattern(path) written into `out`, reusing its storage: no
// allocation once `out` has grown to the longest pattern.
void param_pattern_into(std::string_view path, std::string& out);

// True for 301/302/303/307/308.
bool is_redirect_status(std::uint16_t status) noexcept;

// True for 4xx/5xx — used by the "suspicious campaign" verification rule
// (§V-A1: "at least half of the servers ... have error code").
bool is_error_status(std::uint16_t status) noexcept;

}  // namespace smash::net
