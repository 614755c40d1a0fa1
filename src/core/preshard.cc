#include "core/preshard.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace smash::core {

WindowPre merge_shard_pres(const std::vector<ShardPreRef>& shards,
                           const SmashConfig& config) {
  WindowPre out;

  // Per-shard id remaps into the window id space. `agg` remaps the shard's
  // whole 2LD interner, so one table serves both the profiles and their
  // referrer-count keys.
  struct Remap {
    std::vector<std::uint32_t> client, server, ip, file, agg;
  };
  constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  std::vector<Remap> remaps(shards.size());

  util::Interner clients;      // window client interner (ids only)
  util::Interner raw_servers;  // window hostname interner (ids only)
  util::Interner agg_servers;  // window 2LD interner -> AggregatedTrace
  util::Interner files;        // window URI-file interner -> AggregatedTrace
  // 2LD (agg) id of each window raw server id.
  std::vector<std::uint32_t> agg_of;

  // Phase 1: window client/server/ip interners by first appearance across
  // shards in epoch order — the order journal-replay window assembly
  // produces. Each shard's server 2LDs are interned as its hostnames are
  // walked; a 2LD new to the window is first reached through a hostname
  // new to the window, so agg ids follow window-raw-server order exactly
  // as in AggregatedTrace::build.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const net::Trace& trace = *shards[i].trace;
    const AggregatedTrace& pre = *shards[i].pre;
    SMASH_CHECK(pre.agg_of().size() == trace.servers().size(),
                "merge_shard_pres: shard cache out of date with its trace");
    Remap& remap = remaps[i];

    remap.client.reserve(trace.clients().size());
    for (std::uint32_t c = 0; c < trace.clients().size(); ++c) {
      remap.client.push_back(clients.intern(trace.clients().name(c)));
    }
    remap.ip.reserve(trace.ips().size());
    for (std::uint32_t p = 0; p < trace.ips().size(); ++p) {
      remap.ip.push_back(out.ips.intern(trace.ips().name(p)));
    }
    remap.agg.assign(pre.servers().size(), kUnmapped);
    remap.server.reserve(trace.servers().size());
    for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
      const std::uint32_t before = raw_servers.size();
      const std::uint32_t w = raw_servers.intern(trace.servers().name(s));
      remap.server.push_back(w);
      const std::uint32_t a = pre.agg_of()[s];
      if (remap.agg[a] == kUnmapped) {
        remap.agg[a] = agg_servers.intern(pre.server_name(a));
      }
      if (w == before) agg_of.push_back(remap.agg[a]);
    }
  }

  // Phase 2: window file interner — concatenating the shards' request-order
  // file interners reproduces first appearance across window request order.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& names = shards[i].pre->files().names();
    remaps[i].file.reserve(names.size());
    for (const auto& name : names) remaps[i].file.push_back(files.intern(name));
  }

  // Phase 3: each shard's referrer-only tail (2LDs no hostname of that
  // shard maps to, in shard request order) appends to the agg interner
  // after all server 2LDs, in shard order — as the batch request scan
  // would intern them.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const AggregatedTrace& pre = *shards[i].pre;
    auto& remap_agg = remaps[i].agg;
    for (std::uint32_t a = 0; a < remap_agg.size(); ++a) {
      if (remap_agg[a] == kUnmapped) {
        remap_agg[a] = agg_servers.intern(pre.server_name(a));
      }
    }
  }

  // Phase 4: fold every shard profile into its window profile. That
  // includes resolution-only servers (no requests, but IPs); referrer-only
  // profiles are empty and fold to nothing.
  //
  // Parallel by interner range: each worker owns a contiguous range of
  // window 2LD (agg) ids and folds, in shard order, exactly the profiles
  // landing in its range — per-profile fold order is identical to the
  // serial walk (only which thread performs it changes), ranges are
  // disjoint so there is no sharing, and the result is byte-identical for
  // every config.num_threads.
  std::vector<ServerProfile> profiles(agg_servers.size());
  std::uint64_t total_requests = 0;
  for (const auto& shard : shards) {
    total_requests += shard.trace->num_requests();
  }

  const auto merge_agg_range = [&](std::uint32_t agg_lo, std::uint32_t agg_hi) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const auto& shard_profiles = shards[i].pre->profiles();
      const Remap& remap = remaps[i];
      for (std::size_t a = 0; a < shard_profiles.size(); ++a) {
        const auto agg_id = remap.agg[a];
        if (agg_id < agg_lo || agg_id >= agg_hi) continue;
        const ServerProfile& delta = shard_profiles[a];
        ServerProfile& profile = profiles[agg_id];
        for (const auto c : delta.clients) profile.clients.insert(remap.client[c]);
        for (const auto p : delta.ips) profile.ips.insert(remap.ip[p]);
        for (const auto day : delta.days) profile.days.insert(day);
        for (const auto f : delta.files) profile.files.insert(remap.file[f]);
        profile.user_agents.insert(delta.user_agents.begin(),
                                   delta.user_agents.end());
        profile.param_patterns.insert(delta.param_patterns.begin(),
                                      delta.param_patterns.end());
        for (const auto& [ref, count] : delta.referrer_counts) {
          profile.referrer_counts[remap.agg[ref]] += count;
        }
        profile.requests += delta.requests;
        profile.error_requests += delta.error_requests;
      }
    }
    for (std::uint32_t a = agg_lo; a < agg_hi; ++a) {
      profiles[a].clients.normalize();
      profiles[a].ips.normalize();
      profiles[a].days.normalize();
      profiles[a].files.normalize();
    }
  };

  const auto num_profiles = static_cast<std::uint32_t>(profiles.size());
  const unsigned merge_threads =
      std::min<unsigned>(config.num_threads, num_profiles == 0 ? 1 : num_profiles);
  if (merge_threads <= 1) {
    merge_agg_range(0, num_profiles);
  } else {
    // parallel_for drains on the calling thread too, so size the pool one
    // short of the thread budget (mirrors core/dimensions.cc).
    util::ThreadPool pool(merge_threads - 1);
    util::parallel_for(pool, merge_threads, [&](std::size_t s) {
      merge_agg_range(
          static_cast<std::uint32_t>(std::uint64_t{num_profiles} * s / merge_threads),
          static_cast<std::uint32_t>(std::uint64_t{num_profiles} * (s + 1) /
                                     merge_threads));
    });
  }

  // Phase 5: redirects. The window's raw redirect map is last-write-wins
  // across shards in epoch order (per-shard maps already hold each shard's
  // last write); aggregation then walks raw servers in window-id order,
  // exactly as AggregatedTrace::build does.
  std::unordered_map<std::uint32_t, std::uint32_t> raw_redirects;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (const auto& [from, to] : shards[i].trace->redirects()) {
      raw_redirects[remaps[i].server[from]] = remaps[i].server[to];
    }
  }
  std::unordered_map<std::uint32_t, std::uint32_t> agg_redirects;
  for (std::uint32_t s = 0; s < raw_servers.size(); ++s) {
    const auto it = raw_redirects.find(s);
    if (it == raw_redirects.end()) continue;
    const auto from_agg = agg_of[s];
    const auto to_agg = agg_of[it->second];
    if (from_agg != to_agg) agg_redirects[from_agg] = to_agg;
  }

  out.pre.agg = AggregatedTrace::from_parts(
      std::move(agg_servers), std::move(files), std::move(profiles),
      std::move(agg_redirects), std::move(agg_of));
  out.pre.total_requests = total_requests;
  apply_idf_filter(out.pre, config);
  return out;
}

std::uint64_t shard_pre_fingerprint(const AggregatedTrace& pre) {
  // FNV-1a over the ordered parts; unordered sets/maps fold in as sums of
  // per-element hashes so iteration order cannot affect the result.
  std::uint64_t h = util::fnv1a("shard-pre-v2");
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const auto mix_names = [&mix](const util::Interner& interner) {
    mix(interner.size());
    for (const auto& s : interner.names()) mix(util::fnv1a(s));
  };
  const auto mix_ids = [&mix](const util::IdSet& set) {
    mix(set.size());
    for (const auto id : set) mix(id);
  };
  const auto pair_hash = [](std::string_view tag, std::uint32_t a,
                            std::uint32_t b) {
    return util::fnv1a(tag) ^ (static_cast<std::uint64_t>(a) << 32 | b);
  };

  mix_names(pre.servers());
  mix(pre.agg_of().size());
  for (const auto a : pre.agg_of()) mix(a);
  mix_names(pre.files());
  std::uint64_t unordered = 0;
  for (const auto& [from, to] : pre.redirects()) {
    unordered += pair_hash("redirect", from, to);
  }
  mix(unordered);

  mix(pre.profiles().size());
  for (const auto& profile : pre.profiles()) {
    mix_ids(profile.clients);
    mix_ids(profile.ips);
    mix_ids(profile.days);
    mix_ids(profile.files);
    mix(profile.requests);
    mix(profile.error_requests);
    unordered = 0;
    for (const auto& ua : profile.user_agents) unordered += util::fnv1a(ua);
    mix(unordered);
    unordered = 0;
    for (const auto& p : profile.param_patterns) unordered += util::fnv1a(p);
    mix(unordered);
    unordered = 0;
    for (const auto& [ref, count] : profile.referrer_counts) {
      unordered += pair_hash("ref", ref, count);
    }
    mix(unordered);
  }
  return h;
}

}  // namespace smash::core
