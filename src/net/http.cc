#include "net/http.h"

namespace smash::net {

std::string_view method_name(Method m) noexcept {
  switch (m) {
    case Method::kGet: return "GET";
    case Method::kPost: return "POST";
    case Method::kHead: return "HEAD";
  }
  return "GET";
}

std::string_view uri_file(std::string_view path) noexcept {
  const auto q = path.find('?');
  std::string_view no_query = q == std::string_view::npos ? path : path.substr(0, q);
  const auto slash = no_query.rfind('/');
  if (slash == std::string_view::npos) return no_query;
  return no_query.substr(slash + 1);
}

std::string_view uri_path_only(std::string_view path) noexcept {
  const auto q = path.find('?');
  return q == std::string_view::npos ? path : path.substr(0, q);
}

std::string_view uri_query(std::string_view path) noexcept {
  const auto q = path.find('?');
  return q == std::string_view::npos ? std::string_view{} : path.substr(q + 1);
}

std::string param_pattern(std::string_view path) {
  std::string out;
  param_pattern_into(path, out);
  return out;
}

void param_pattern_into(std::string_view path, std::string& out) {
  out.clear();
  const std::string_view query = uri_query(path);
  for (std::size_t start = 0; start < query.size();) {
    std::size_t amp = query.find('&', start);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(start, amp - start);
    if (!pair.empty()) {
      out.append(pair.substr(0, pair.find('=')));  // the key
      out.append("=&");
    }
    start = amp + 1;
  }
  if (!out.empty()) out.pop_back();  // drop trailing '&'
}

bool is_redirect_status(std::uint16_t status) noexcept {
  return status == 301 || status == 302 || status == 303 || status == 307 ||
         status == 308;
}

bool is_error_status(std::uint16_t status) noexcept { return status >= 400; }

}  // namespace smash::net
