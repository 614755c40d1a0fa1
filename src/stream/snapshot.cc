#include "stream/snapshot.h"

#include <algorithm>
#include <initializer_list>

#include "dns/domain.h"

namespace smash::stream {

std::shared_ptr<const DetectionSnapshot> DetectionSnapshot::build(
    const core::SmashResult& result, const util::Interner& window_ips,
    std::size_t window_requests, const WindowAggregates& aggregates,
    const IngestStats& ingest, EpochId first_epoch, EpochId last_epoch,
    std::uint64_t sequence, RecoveryStats recovery,
    const std::function<void()>& build_hook) {
  auto snap = std::shared_ptr<DetectionSnapshot>(new DetectionSnapshot());
  snap->first_epoch_ = first_epoch;
  snap->last_epoch_ = last_epoch;
  snap->sequence_ = sequence;
  snap->window_requests_ = window_requests;
  snap->kept_servers_ = result.pre.kept.size();
  snap->postings_budget_exceeded_ = result.postings_budget_exceeded();
  snap->join_shard_passes_ = result.join_shard_passes();
  snap->peak_resident_postings_bytes_ = result.peak_resident_postings_bytes();
  snap->louvain_stats_ = result.louvain_stats();
  snap->ingest_stats_ = ingest;
  snap->recovery_stats_ = recovery;

  // An exception here (or anywhere below) unwinds before the caller ever
  // publishes `snap`: the previously published snapshot stays readable.
  if (build_hook) build_hook();

  for (const auto& campaign : result.campaigns) {
    const auto campaign_index =
        static_cast<std::uint32_t>(snap->campaigns_.size());
    SnapshotCampaign out;
    out.involved_clients =
        static_cast<std::uint32_t>(campaign.involved_clients.size());
    out.single_client = campaign.single_client();

    ServerVerdict verdict;
    verdict.campaign = campaign_index;
    verdict.campaign_servers = static_cast<std::uint32_t>(campaign.servers.size());
    verdict.single_client = out.single_client;

    for (auto kept_idx : campaign.servers) {
      const std::string& name = result.server_name(kept_idx);
      out.servers.push_back(name);
      if (const auto* window_stats = aggregates.find(name)) {
        verdict.window_requests = window_stats->requests;
        verdict.active_epochs = window_stats->active_epochs;
      } else {
        verdict.window_requests = 0;
        verdict.active_epochs = 0;
      }
      snap->by_2ld_.emplace(name, verdict);
      // Index every IP the campaign server resolved to in this window: a
      // request straight to the IP (no Host aggregation possible) still
      // gets a verdict.
      for (auto ip : result.server_profile(kept_idx).ips) {
        snap->by_ip_.emplace(window_ips.name(ip), verdict);
      }
    }
    snap->campaigns_.push_back(std::move(out));
  }

  snap->built_at_ = std::chrono::steady_clock::now();
  return snap;
}

std::string DetectionSnapshot::digest() const {
  std::string out;
  const auto line = [&out](std::initializer_list<std::string> fields) {
    bool first = true;
    for (const auto& f : fields) {
      if (!first) out += '\t';
      out += f;
      first = false;
    }
    out += '\n';
  };
  const auto num = [](std::uint64_t v) { return std::to_string(v); };

  line({"epochs", num(first_epoch_), num(last_epoch_), num(sequence_)});
  line({"window", num(window_requests_), num(kept_servers_),
        num(postings_budget_exceeded_ ? 1 : 0)});
  line({"ingest", num(ingest_stats_.requests), num(ingest_stats_.resolutions),
        num(ingest_stats_.redirects), num(ingest_stats_.late_dropped),
        num(ingest_stats_.late_folded)});
  for (std::size_t i = 0; i < campaigns_.size(); ++i) {
    const auto& c = campaigns_[i];
    std::string servers;
    for (const auto& s : c.servers) {
      if (!servers.empty()) servers += ',';
      servers += s;
    }
    line({"campaign", num(i), num(c.involved_clients),
          num(c.single_client ? 1 : 0), servers});
  }
  const auto verdicts = [&](const char* tag, const auto& by) {
    std::vector<std::string> keys;
    keys.reserve(by.size());
    for (const auto& [key, verdict] : by) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) {
      const auto& v = by.at(key);
      line({tag, key, num(v.campaign), num(v.campaign_servers),
            num(v.single_client ? 1 : 0), num(v.window_requests),
            num(v.active_epochs)});
    }
  };
  verdicts("2ld", by_2ld_);
  verdicts("ip", by_ip_);
  return out;
}

const ServerVerdict* DetectionSnapshot::find_host(std::string_view host) const {
  auto it = by_2ld_.find(dns::effective_2ld(host));
  return it == by_2ld_.end() ? nullptr : &it->second;
}

const ServerVerdict* DetectionSnapshot::find_ip(std::string_view ip) const {
  auto it = by_ip_.find(ip);
  return it == by_ip_.end() ? nullptr : &it->second;
}

}  // namespace smash::stream
