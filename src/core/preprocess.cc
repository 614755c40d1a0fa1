#include "core/preprocess.h"

#include "dns/domain.h"
#include "net/http.h"

namespace smash::core {

AggregatedTrace AggregatedTrace::build(const net::Trace& trace) {
  AggregatedTrace out;

  // hostname id -> aggregated id, computed once per hostname.
  auto& agg_of = out.agg_of_;
  agg_of.resize(trace.servers().size());
  for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
    agg_of[s] = out.servers_.intern(dns::effective_2ld(trace.servers().name(s)));
  }
  out.profiles_.resize(out.servers_.size());

  for (const auto& req : trace.requests()) {
    ServerProfile& p = out.profiles_[agg_of[req.server]];
    p.clients.insert(req.client);
    p.days.insert(req.day);
    p.files.insert(out.files_.intern(net::uri_file(req.path)));
    p.user_agents.insert(req.user_agent);
    const std::string pattern = net::param_pattern(req.path);
    if (!pattern.empty()) p.param_patterns.insert(pattern);
    if (!req.referrer.empty()) {
      ++p.referrer_counts[out.servers_.intern(dns::effective_2ld(req.referrer))];
    }
    ++p.requests;
    if (net::is_error_status(req.status)) ++p.error_requests;
  }
  // A referrer-only host may have grown the interner past profiles_.
  out.profiles_.resize(out.servers_.size());

  for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
    for (auto ip : trace.ips_of(s)) out.profiles_[agg_of[s]].ips.insert(ip);
    std::uint32_t to = 0;
    if (trace.redirect_target(s, to)) {
      const auto from_agg = agg_of[s];
      const auto to_agg = agg_of[to];
      if (from_agg != to_agg) out.redirects_[from_agg] = to_agg;
    }
  }

  for (auto& p : out.profiles_) {
    p.clients.normalize();
    p.ips.normalize();
    p.days.normalize();
    p.files.normalize();
  }
  return out;
}

AggregatedTrace AggregatedTrace::from_parts(
    util::Interner servers, util::Interner files,
    std::vector<ServerProfile> profiles,
    std::unordered_map<std::uint32_t, std::uint32_t> redirects,
    std::vector<std::uint32_t> agg_of) {
  AggregatedTrace out;
  out.servers_ = std::move(servers);
  out.files_ = std::move(files);
  out.profiles_ = std::move(profiles);
  out.redirects_ = std::move(redirects);
  out.agg_of_ = std::move(agg_of);
  out.profiles_.resize(out.servers_.size());
  return out;
}

void apply_idf_filter(PreprocessResult& out, const SmashConfig& config) {
  const auto& agg = out.agg;
  out.servers_before_aggregation = agg.num_servers_before_aggregation();
  out.servers_after_aggregation = agg.servers().size();

  out.kept.clear();
  out.requests_after_filter = 0;
  out.kept_index_of.assign(agg.servers().size(), -1);
  for (std::uint32_t s = 0; s < agg.servers().size(); ++s) {
    const auto& p = agg.profile(s);
    if (p.requests == 0) continue;  // referrer-only host, never requested
    if (p.clients.size() > config.idf_threshold) continue;  // popular
    out.kept_index_of[s] = static_cast<std::int32_t>(out.kept.size());
    out.kept.push_back(s);
    out.requests_after_filter += p.requests;
  }
  out.servers_after_filter = static_cast<std::uint32_t>(out.kept.size());
}

PreprocessResult preprocess(const net::Trace& trace, const SmashConfig& config) {
  PreprocessResult out{AggregatedTrace::build(trace), {}, {}};
  out.total_requests = trace.num_requests();
  apply_idf_filter(out, config);
  return out;
}

}  // namespace smash::core
