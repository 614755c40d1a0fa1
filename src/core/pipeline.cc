#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace smash::core {

namespace {

// Stage timing into the configured registry (no-op on null). Stage spans
// are emitted separately at the call sites via SMASH_SPAN.
class StageClock {
 public:
  explicit StageClock(obs::Registry* metrics) : metrics_(metrics) {}
  void lap(const char* histogram_name) {
    const auto now = std::chrono::steady_clock::now();
    if (metrics_ != nullptr) {
      metrics_->latency_histogram_ms(histogram_name)
          .observe(std::chrono::duration<double, std::milli>(now - last_).count());
    }
    last_ = now;
  }

 private:
  obs::Registry* metrics_;
  std::chrono::steady_clock::time_point last_ = std::chrono::steady_clock::now();
};

// Merge pruned groups that live in the same main-dimension herd (paper
// §III-E: the main dimension captures the campaign's group connection
// behavior, so download tiers and C&C tiers reunite here). Union-find over
// group indices keyed by herd.
std::vector<std::vector<std::uint32_t>> merge_by_main_herd(
    const std::vector<std::vector<std::uint32_t>>& groups,
    const DimensionAshes& main) {
  std::vector<std::uint32_t> parent(groups.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::unordered_map<std::int32_t, std::uint32_t> first_group_of_herd;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g]) {
      const auto herd = main.ash_of[member];
      if (herd < 0) continue;
      auto [it, inserted] = first_group_of_herd.emplace(herd, g);
      if (!inserted) parent[find(g)] = find(it->second);
    }
  }

  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> merged;
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    auto& target = merged[find(g)];
    target.insert(target.end(), groups[g].begin(), groups[g].end());
  }

  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(merged.size());
  for (auto& [root, members] : merged) {
    (void)root;
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> involved_clients_of(const PreprocessResult& pre,
                                               const std::vector<std::uint32_t>& members) {
  std::unordered_map<std::uint32_t, std::uint32_t> appearances;
  for (auto member : members) {
    for (auto client : pre.agg.profile(pre.kept[member]).clients) {
      ++appearances[client];
    }
  }
  std::vector<std::uint32_t> out;
  const auto majority = members.size() / 2;
  for (const auto& [client, count] : appearances) {
    if (count > majority) out.push_back(client);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<std::uint32_t> SmashResult::detected_servers(bool single_client) const {
  std::vector<std::uint32_t> out;
  for (const auto& campaign : campaigns) {
    if (campaign.single_client() != single_client) continue;
    out.insert(out.end(), campaign.servers.begin(), campaign.servers.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<const Campaign*> SmashResult::detected_campaigns(bool single_client) const {
  std::vector<const Campaign*> out;
  for (const auto& campaign : campaigns) {
    if (campaign.single_client() == single_client) out.push_back(&campaign);
  }
  return out;
}

bool SmashResult::postings_budget_exceeded() const noexcept {
  for (const auto& dim : dims) {
    if (dim.postings_budget_exceeded()) return true;
  }
  return false;
}

std::size_t SmashResult::join_shard_passes() const noexcept {
  std::size_t total = 0;
  for (const auto& dim : dims) total += dim.join_stats.shard_passes;
  return total;
}

std::size_t SmashResult::peak_resident_postings_bytes() const noexcept {
  std::size_t peak = 0;
  for (const auto& dim : dims) {
    peak = std::max(peak, dim.join_stats.peak_resident_postings_bytes);
  }
  return peak;
}

graph::LouvainStats SmashResult::louvain_stats() const noexcept {
  graph::LouvainStats total;
  for (const auto& dim : dims) total += dim.louvain_stats;
  return total;
}

SmashResult SmashPipeline::run(const net::Trace& trace,
                               const whois::Registry& registry) const {
  StageClock clock(config_.metrics);
  PreprocessResult pre;
  {
    SMASH_SPAN("pipeline.preprocess");
    pre = preprocess(trace, config_);
  }
  clock.lap("pipeline.preprocess_ms");
  return run_preprocessed(std::move(pre), registry);
}

SmashResult SmashPipeline::run_preprocessed(PreprocessResult pre,
                                            const whois::Registry& registry) const {
  StageClock clock(config_.metrics);
  SmashResult result;
  result.pre = std::move(pre);
  {
    SMASH_SPAN("pipeline.mine");
    result.dims = mine_all_dimensions(result.pre, registry, config_);
  }
  clock.lap("pipeline.mine_ms");
  {
    SMASH_SPAN("pipeline.correlate");
    result.correlation = correlate(result.pre, result.dims, config_);
  }
  clock.lap("pipeline.correlate_ms");
  {
    SMASH_SPAN("pipeline.prune");
    result.pruned = prune(result.pre, result.correlation.groups, config_);
  }
  clock.lap("pipeline.prune_ms");

  {
    SMASH_SPAN("pipeline.campaigns");
    const auto& main = result.dims[static_cast<int>(Dimension::kClient)];
    for (auto& members : merge_by_main_herd(result.pruned.groups, main)) {
      Campaign campaign;
      campaign.involved_clients = involved_clients_of(result.pre, members);
      campaign.servers = std::move(members);
      result.campaigns.push_back(std::move(campaign));
    }
  }
  clock.lap("pipeline.campaigns_ms");
  return result;
}

}  // namespace smash::core
