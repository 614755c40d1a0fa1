// Test oracles for preprocessing (paper §III-A): the plain serial forms of
// effective-2LD extraction, of query parsing and the parameter pattern, and of
// AggregatedTrace::build. The product code computes the same things
// allocation-free and in parallel phases (dns::effective_2ld_view,
// net::param_pattern_into, core/preprocess.cc); these stay as the
// straightforward definitions it is held equal to, field for field and
// down to the iteration order of every unordered container.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/preprocess.h"
#include "dns/domain.h"
#include "net/http.h"
#include "net/trace.h"
#include "util/interner.h"
#include "util/strings.h"

namespace smash::test {

// Effective 2LD by splitting `host` into labels and re-joining the kept
// ones. An empty label at the front of the kept part adds neither itself
// nor a dot.
inline std::string effective_2ld_reference(std::string_view host) {
  if (dns::is_ipv4_literal(host)) return std::string(host);
  const auto labels = util::split(host, '.');
  if (labels.size() <= 1) return std::string(host);

  // The longest public suffix that is a proper suffix: a listed two-label
  // one (is_public_suffix on a dotted name matches only those), else one
  // label, listed or not.
  std::size_t suffix_labels = 1;
  const std::string two = std::string(labels[labels.size() - 2]) + "." +
                          std::string(labels.back());
  if (dns::is_public_suffix(two)) suffix_labels = 2;

  const std::size_t keep = suffix_labels + 1;
  if (labels.size() <= keep) return std::string(host);

  std::string out;
  for (std::size_t i = labels.size() - keep; i < labels.size(); ++i) {
    if (!out.empty()) out.push_back('.');
    out.append(labels[i]);
  }
  return out;
}

// The query of `path` as (key, value) pairs in order of appearance; empty
// pairs are skipped, and a key without '=' has an empty value.
inline std::vector<std::pair<std::string_view, std::string_view>> query_params(
    std::string_view path) {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  std::string_view query = net::uri_query(path);
  std::size_t start = 0;
  while (start <= query.size() && !query.empty()) {
    auto amp = query.find('&', start);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(start, amp - start);
    if (!pair.empty()) {
      const auto eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.emplace_back(pair, std::string_view{});
      } else {
        out.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
      }
    }
    if (amp == query.size()) break;
    start = amp + 1;
  }
  return out;
}

// Parameter pattern from the parsed (key, value) pairs: each key followed
// by "=", joined by "&".
inline std::string param_pattern_reference(std::string_view path) {
  std::string out;
  for (const auto& [key, value] : query_params(path)) {
    (void)value;
    out.append(key);
    out.append("=&");
  }
  if (!out.empty()) out.pop_back();  // drop trailing '&'
  return out;
}

// AggregatedTrace::build as one serial walk: hostnames to 2LDs, then every
// request in order into its 2LD's profile (interning files and referrer
// 2LDs as it goes), then resolutions and redirects in hostname order.
inline core::AggregatedTrace build_reference(const net::Trace& trace) {
  util::Interner servers;
  util::Interner files;
  std::vector<core::ServerProfile> profiles;
  std::unordered_map<std::uint32_t, std::uint32_t> redirects;
  std::vector<std::uint32_t> agg_of(trace.servers().size());

  for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
    agg_of[s] = servers.intern(effective_2ld_reference(trace.servers().name(s)));
  }
  profiles.resize(servers.size());

  for (const auto& req : trace.requests()) {
    core::ServerProfile& p = profiles[agg_of[req.server]];
    p.clients.insert(req.client);
    p.days.insert(req.day);
    p.files.insert(files.intern(net::uri_file(req.path)));
    p.user_agents.insert(req.user_agent);
    const std::string pattern = param_pattern_reference(req.path);
    if (!pattern.empty()) p.param_patterns.insert(pattern);
    if (!req.referrer.empty()) {
      ++p.referrer_counts[servers.intern(effective_2ld_reference(req.referrer))];
    }
    ++p.requests;
    if (net::is_error_status(req.status)) ++p.error_requests;
  }
  // A referrer-only host may have grown the interner past profiles.
  profiles.resize(servers.size());

  for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
    for (auto ip : trace.ips_of(s)) profiles[agg_of[s]].ips.insert(ip);
    std::uint32_t to = 0;
    if (trace.redirect_target(s, to)) {
      const auto from_agg = agg_of[s];
      const auto to_agg = agg_of[to];
      if (from_agg != to_agg) redirects[from_agg] = to_agg;
    }
  }

  for (auto& p : profiles) {
    p.clients.normalize();
    p.ips.normalize();
    p.days.normalize();
    p.files.normalize();
  }
  return core::AggregatedTrace::from_parts(std::move(servers), std::move(files),
                                           std::move(profiles), std::move(redirects),
                                           std::move(agg_of));
}

// The elements of an unordered container in its iteration order.
template <typename Container>
std::vector<typename Container::value_type> in_iteration_order(const Container& c) {
  return {c.begin(), c.end()};
}

// Field-for-field equality, including the iteration order of every
// unordered container (what a consumer walking them would see).
inline void expect_same_aggregation(const core::AggregatedTrace& a,
                                    const core::AggregatedTrace& b) {
  ASSERT_EQ(a.servers().names(), b.servers().names());
  EXPECT_EQ(a.agg_of(), b.agg_of());
  EXPECT_EQ(a.files().names(), b.files().names());
  for (std::uint32_t f = 0; f < a.files().size(); ++f) {
    ASSERT_EQ(a.files().find(b.files().name(f)), f);
  }
  for (std::uint32_t s = 0; s < a.servers().size(); ++s) {
    ASSERT_EQ(a.servers().find(b.servers().name(s)), s);
  }
  EXPECT_EQ(in_iteration_order(a.redirects()), in_iteration_order(b.redirects()));
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  for (std::uint32_t s = 0; s < a.profiles().size(); ++s) {
    const core::ServerProfile& p = a.profiles()[s];
    const core::ServerProfile& q = b.profiles()[s];
    const std::string& host = a.server_name(s);
    EXPECT_EQ(p.clients, q.clients) << host;
    EXPECT_EQ(p.ips, q.ips) << host;
    EXPECT_EQ(p.days, q.days) << host;
    EXPECT_EQ(p.files, q.files) << host;
    EXPECT_TRUE(p.clients.is_normalized() && p.ips.is_normalized() &&
                p.days.is_normalized() && p.files.is_normalized())
        << host;
    EXPECT_EQ(in_iteration_order(p.user_agents), in_iteration_order(q.user_agents))
        << host;
    EXPECT_EQ(in_iteration_order(p.param_patterns),
              in_iteration_order(q.param_patterns))
        << host;
    EXPECT_EQ(in_iteration_order(p.referrer_counts),
              in_iteration_order(q.referrer_counts))
        << host;
    EXPECT_EQ(p.requests, q.requests) << host;
    EXPECT_EQ(p.error_requests, q.error_requests) << host;
  }
}

}  // namespace smash::test
