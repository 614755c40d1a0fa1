#include "core/pruning.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

namespace smash::core {

namespace {

// Follows aggregated redirect edges from `server` to the chain's landing
// (last hop without an outgoing redirect). Cycle-guarded. Returns nullopt
// when the server does not redirect at all.
std::optional<std::uint32_t> landing_of(const AggregatedTrace& agg,
                                        std::uint32_t server) {
  const auto& redirects = agg.redirects();
  auto it = redirects.find(server);
  if (it == redirects.end()) return std::nullopt;
  std::unordered_set<std::uint32_t> seen{server};
  std::uint32_t current = it->second;
  while (true) {
    if (!seen.insert(current).second) return std::nullopt;  // cycle
    auto next = redirects.find(current);
    if (next == redirects.end()) return current;
    current = next->second;
  }
}

// The referrer host present on >= `dominance` of the server's requests,
// if any. Below a dominance of 0.5 several hosts can qualify: the one on
// the most requests wins, ties going to the lowest 2LD id, so the pick
// does not depend on the map's iteration order (a batch build and a merge
// of stream shards insert the hosts in different orders).
std::optional<std::uint32_t> dominant_referrer(const ServerProfile& profile,
                                               double dominance) {
  std::optional<std::uint32_t> best;
  std::uint32_t best_count = 0;
  for (const auto& [host, count] : profile.referrer_counts) {
    if (static_cast<double>(count) <
        dominance * static_cast<double>(profile.requests)) {
      continue;
    }
    if (!best || count > best_count || (count == best_count && host < *best)) {
      best = host;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

PruneResult prune(const PreprocessResult& pre,
                  const std::vector<std::vector<std::uint32_t>>& groups,
                  const SmashConfig& config) {
  PruneResult out;
  const auto& agg = pre.agg;

  for (const auto& group : groups) {
    std::vector<std::uint32_t> pruned;
    std::unordered_set<std::uint32_t> added;  // aggregated ids added

    const auto add_agg_server = [&](std::uint32_t agg_id) {
      if (!added.insert(agg_id).second) return;
      const auto kept_idx = pre.kept_index_of[agg_id];
      // Landing servers filtered by the IDF step stay out (they are
      // popular, hence uninteresting by construction).
      if (kept_idx >= 0) pruned.push_back(static_cast<std::uint32_t>(kept_idx));
    };

    for (auto member : group) {
      const auto agg_id = pre.kept[member];

      // Redirection group member: the whole chain is represented by its
      // landing server.
      if (const auto landing = landing_of(agg, agg_id)) {
        ++out.stats.redirect_members_replaced;
        add_agg_server(*landing);
        continue;
      }

      // Referrer group member: represented by the landing (referring)
      // server, unless the member *is* its own herd's landing.
      const auto referrer =
          dominant_referrer(agg.profile(agg_id), config.referrer_dominance);
      if (referrer && *referrer != agg_id) {
        ++out.stats.referrer_members_replaced;
        add_agg_server(*referrer);
        continue;
      }

      add_agg_server(agg_id);
    }

    std::sort(pruned.begin(), pruned.end());
    if (pruned.size() >= 2) {
      out.groups.push_back(std::move(pruned));
    } else {
      ++out.stats.groups_dropped;
    }
  }
  return out;
}

}  // namespace smash::core
