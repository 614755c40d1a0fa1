#include "core/preshard.h"

#include <algorithm>
#include <utility>

#include "dns/domain.h"
#include "net/http.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace smash::core {

ShardPre build_shard_pre(const net::Trace& shard) {
  ShardPre out;
  const std::uint32_t num_servers = shard.servers().size();
  out.server_2lds.reserve(num_servers);
  out.delta_of_server.reserve(num_servers);

  // 2LD each raw server exactly once; delta slots in raw-server-id order,
  // mirroring AggregatedTrace::build's aggregation order.
  util::Interner delta_ids;
  for (std::uint32_t s = 0; s < num_servers; ++s) {
    std::string two_ld = dns::effective_2ld(shard.servers().name(s));
    out.delta_of_server.push_back(delta_ids.intern(two_ld));
    out.server_2lds.push_back(std::move(two_ld));
  }
  out.delta_2lds = delta_ids.names();
  out.deltas.resize(out.delta_2lds.size());

  // One pass over the shard's requests: all per-request string parsing
  // (URI file, parameter pattern, referrer 2LD) happens here, once per
  // epoch, never again on window slides.
  util::Interner files;
  util::Interner referrers;
  for (const auto& req : shard.requests()) {
    ShardServerDelta& delta = out.deltas[out.delta_of_server[req.server]];
    delta.clients.insert(req.client);
    delta.days.insert(req.day);
    delta.files.insert(files.intern(net::uri_file(req.path)));

    delta.user_agents.insert(req.user_agent);
    std::string pattern = net::param_pattern(req.path);
    if (!pattern.empty()) delta.param_patterns.insert(std::move(pattern));

    if (!req.referrer.empty()) {
      ++delta.referrer_counts[referrers.intern(dns::effective_2ld(req.referrer))];
    }

    ++delta.requests;
    if (net::is_error_status(req.status)) ++delta.error_requests;
  }
  out.file_names = files.names();
  out.referrer_2lds = referrers.names();

  for (std::uint32_t s = 0; s < num_servers; ++s) {
    ShardServerDelta& delta = out.deltas[out.delta_of_server[s]];
    for (const auto ip : shard.ips_of(s)) delta.ips.insert(ip);
  }

  for (auto& delta : out.deltas) {
    delta.clients.normalize();
    delta.ips.normalize();
    delta.days.normalize();
    delta.files.normalize();
  }
  return out;
}

WindowPre merge_shard_pres(const std::vector<ShardPreRef>& shards,
                           const SmashConfig& config) {
  WindowPre out;

  // Per-shard id remaps into the window id space.
  struct Remap {
    std::vector<std::uint32_t> client, server, ip, file, referrer;
  };
  std::vector<Remap> remaps(shards.size());

  util::Interner clients;      // window client interner (ids only)
  util::Interner raw_servers;  // window hostname interner (ids only)
  util::Interner agg_servers;  // window 2LD interner -> AggregatedTrace
  util::Interner files;        // window URI-file interner -> AggregatedTrace
  // 2LD (agg) id of each window raw server id.
  std::vector<std::uint32_t> agg_of;

  // Phase 1: window client/server/ip interners by first appearance across
  // shards in epoch order — the order journal-replay window assembly
  // produces. A raw server new to the window gets its 2LD interned
  // immediately, so agg ids follow window-raw-server order exactly as in
  // AggregatedTrace::build.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const net::Trace& trace = *shards[i].trace;
    const ShardPre& pre = *shards[i].pre;
    SMASH_CHECK(pre.server_2lds.size() == trace.servers().size(),
                "merge_shard_pres: ShardPre out of date with its trace");
    Remap& remap = remaps[i];

    remap.client.reserve(trace.clients().size());
    for (std::uint32_t c = 0; c < trace.clients().size(); ++c) {
      remap.client.push_back(clients.intern(trace.clients().name(c)));
    }
    remap.ip.reserve(trace.ips().size());
    for (std::uint32_t p = 0; p < trace.ips().size(); ++p) {
      remap.ip.push_back(out.ips.intern(trace.ips().name(p)));
    }
    remap.server.reserve(trace.servers().size());
    for (std::uint32_t s = 0; s < trace.servers().size(); ++s) {
      const std::uint32_t before = raw_servers.size();
      const std::uint32_t w = raw_servers.intern(trace.servers().name(s));
      remap.server.push_back(w);
      if (w == before) agg_of.push_back(agg_servers.intern(pre.server_2lds[s]));
    }
  }

  // Phase 2: window file interner — concatenating the shards' request-order
  // file lists reproduces first appearance across window request order.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardPre& pre = *shards[i].pre;
    remaps[i].file.reserve(pre.file_names.size());
    for (const auto& name : pre.file_names) {
      remaps[i].file.push_back(files.intern(name));
    }
  }

  // Phase 3: referrer-only 2LDs append to the agg interner after all server
  // 2LDs, in window request order — as the batch request scan would.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardPre& pre = *shards[i].pre;
    remaps[i].referrer.reserve(pre.referrer_2lds.size());
    for (const auto& name : pre.referrer_2lds) {
      remaps[i].referrer.push_back(agg_servers.intern(name));
    }
  }

  // Phase 4: merge the per-shard deltas into window profiles. Referrer-only
  // 2LDs keep default-empty profiles, as after the batch resize.
  //
  // Parallel by interner range: each worker owns a contiguous range of
  // window 2LD (agg) ids and applies, in shard order, exactly the deltas
  // landing in its range — per-profile delta application order is
  // identical to the serial walk (only which thread performs it changes),
  // ranges are disjoint so there is no sharing, and the result is
  // byte-identical for every config.num_threads.
  std::vector<ServerProfile> profiles(agg_servers.size());
  std::uint64_t total_requests = 0;
  std::vector<std::vector<std::uint32_t>> delta_agg(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardPre& pre = *shards[i].pre;
    total_requests += shards[i].trace->num_requests();
    delta_agg[i].reserve(pre.delta_2lds.size());
    for (const auto& two_ld : pre.delta_2lds) {
      const auto agg_id = agg_servers.find(two_ld);
      SMASH_CHECK(agg_id.has_value(),
                  "merge_shard_pres: shard 2LD missing from window interner");
      delta_agg[i].push_back(*agg_id);
    }
  }

  const auto merge_agg_range = [&](std::uint32_t agg_lo, std::uint32_t agg_hi) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardPre& pre = *shards[i].pre;
      const Remap& remap = remaps[i];
      for (std::size_t d = 0; d < pre.deltas.size(); ++d) {
        const auto agg_id = delta_agg[i][d];
        if (agg_id < agg_lo || agg_id >= agg_hi) continue;
        const ShardServerDelta& delta = pre.deltas[d];
        ServerProfile& profile = profiles[agg_id];
        for (const auto c : delta.clients) profile.clients.insert(remap.client[c]);
        for (const auto p : delta.ips) profile.ips.insert(remap.ip[p]);
        for (const auto day : delta.days) profile.days.insert(day);
        for (const auto f : delta.files) profile.files.insert(remap.file[f]);
        profile.user_agents.insert(delta.user_agents.begin(),
                                   delta.user_agents.end());
        profile.param_patterns.insert(delta.param_patterns.begin(),
                                      delta.param_patterns.end());
        for (const auto& [ref_local, count] : delta.referrer_counts) {
          profile.referrer_counts[remap.referrer[ref_local]] += count;
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

  const std::uint32_t num_raw_servers = raw_servers.size();
  out.pre.agg = AggregatedTrace::from_parts(
      std::move(agg_servers), std::move(files), std::move(profiles),
      std::move(agg_redirects), num_raw_servers);
  out.pre.total_requests = total_requests;
  apply_idf_filter(out.pre, config);
  return out;
}

std::uint64_t shard_pre_fingerprint(const ShardPre& pre) {
  // FNV-1a over the ordered parts; unordered sets/maps fold in as sums of
  // per-element hashes so iteration order cannot affect the result.
  std::uint64_t h = util::fnv1a("shard-pre-v1");
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const auto mix_str = [&mix](const std::string& s) { mix(util::fnv1a(s)); };
  const auto mix_ids = [&mix](const util::IdSet& set) {
    mix(set.size());
    for (const auto id : set) mix(id);
  };

  mix(pre.server_2lds.size());
  for (const auto& s : pre.server_2lds) mix_str(s);
  mix(pre.delta_of_server.size());
  for (const auto d : pre.delta_of_server) mix(d);
  mix(pre.delta_2lds.size());
  for (const auto& s : pre.delta_2lds) mix_str(s);
  mix(pre.file_names.size());
  for (const auto& s : pre.file_names) mix_str(s);
  mix(pre.referrer_2lds.size());
  for (const auto& s : pre.referrer_2lds) mix_str(s);

  mix(pre.deltas.size());
  for (const auto& delta : pre.deltas) {
    mix_ids(delta.clients);
    mix_ids(delta.ips);
    mix_ids(delta.days);
    mix_ids(delta.files);
    mix(delta.requests);
    mix(delta.error_requests);
    std::uint64_t unordered = 0;
    for (const auto& ua : delta.user_agents) unordered += util::fnv1a(ua);
    mix(unordered);
    unordered = 0;
    for (const auto& p : delta.param_patterns) unordered += util::fnv1a(p);
    mix(unordered);
    unordered = 0;
    for (const auto& [ref, count] : delta.referrer_counts) {
      unordered += util::fnv1a("ref") ^ (static_cast<std::uint64_t>(ref) << 32 | count);
    }
    mix(unordered);
  }
  return h;
}

}  // namespace smash::core
