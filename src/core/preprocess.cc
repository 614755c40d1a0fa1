#include "core/preprocess.h"

#include <algorithm>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "dns/domain.h"
#include "net/http.h"
#include "util/thread_pool.h"

namespace smash::core {

namespace {

constexpr std::uint32_t kNoReferrer = std::numeric_limits<std::uint32_t>::max();

// How far ahead of the current request the loops over requests prefetch.
constexpr std::size_t kAhead = 8;

// Runs fn(bounds[i], bounds[i + 1]) for every slice, across the pool and
// the calling thread, or inline when there is no pool.
void for_slices(util::ThreadPool* pool, const std::vector<std::size_t>& bounds,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  const auto slice = [&](std::size_t i) { fn(bounds[i], bounds[i + 1]); };
  if (pool == nullptr) {
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) slice(i);
  } else {
    util::parallel_for(*pool, bounds.size() - 1, slice);
  }
}

// `parts` contiguous slices of [0, n), of near-equal size.
std::vector<std::size_t> even_slices(std::size_t n, std::size_t parts) {
  std::vector<std::size_t> bounds(parts + 1);
  for (std::size_t i = 0; i <= parts; ++i) bounds[i] = n * i / parts;
  return bounds;
}

// Counting sort of the indices 0..n-1 by `key(i)` < num_keys: afterwards
// order[begin[k] .. begin[k + 1]) holds the indices with key k, ascending.
template <typename Key>
void group_by_key(std::size_t n, std::size_t num_keys, const Key& key,
                  std::vector<std::uint32_t>& begin,
                  std::vector<std::uint32_t>& order) {
  begin.assign(num_keys + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++begin[key(i) + 1];
  for (std::size_t k = 0; k < num_keys; ++k) begin[k + 1] += begin[k];
  std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[next[key(i)]++] = static_cast<std::uint32_t>(i);
  }
}

// Inserts `id` unless it repeats the set's last insert. A profile's
// requests come in runs of one client and one day; dropping the repeats
// before the sort leaves the normalized set unchanged.
void insert_unless_repeat(util::IdSet& set, std::uint32_t id) {
  if (set.empty() || set.values().back() != id) set.insert(id);
}

}  // namespace

AggregatedTrace AggregatedTrace::build(const net::Trace& trace, unsigned num_threads) {
  AggregatedTrace out;
  const auto& requests = trace.requests();
  const std::size_t num_requests = requests.size();
  const std::uint32_t num_hosts = trace.servers().size();
  const std::size_t threads = std::max(num_threads, 1u);
  // parallel_for drains on the calling thread too, so the pool is one
  // short of the thread budget.
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(static_cast<unsigned>(threads - 1));
  util::ThreadPool* const workers = pool ? &*pool : nullptr;
  // Several slices per thread, so that uneven slices balance out.
  const std::size_t parts = threads == 1 ? 1 : 4 * threads;

  // Phase 1, parallel parse: each hostname's 2LD (a view into the
  // hostname) and its interner hash, and the interner hash of each
  // request's URI file.
  std::vector<std::string_view> host_2ld(num_hosts);
  std::vector<std::size_t> host_hash(num_hosts);
  for_slices(workers, even_slices(num_hosts, parts), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      host_2ld[s] = dns::effective_2ld_view(trace.servers().name(static_cast<std::uint32_t>(s)));
      host_hash[s] = util::Interner::hash(host_2ld[s]);
    }
  });
  std::vector<std::size_t> file_hash(num_requests);
  for_slices(workers, even_slices(num_requests, parts), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      if (r + kAhead < hi) __builtin_prefetch(requests[r + kAhead].path.data());
      file_hash[r] = util::Interner::hash(net::uri_file(requests[r].path));
    }
  });

  // Phase 2, ordered interning. One worker interns the files in request
  // order, so file ids are those of a serial walk; meanwhile this thread
  // and the rest of the pool build everything else.
  std::vector<std::uint32_t> file_of(num_requests);
  // Distinct files are at most the requests, so the interner never grows
  // and its storage comes from this thread (see the id sets below).
  out.files_.reserve(num_requests);
  const auto intern_files = [&] {
    for (std::size_t r = 0; r < num_requests; ++r) {
      if (r + kAhead < num_requests) {
        __builtin_prefetch(requests[r + kAhead].path.data());
        out.files_.prefetch(file_hash[r + kAhead]);
      }
      file_of[r] = out.files_.intern(net::uri_file(requests[r].path), file_hash[r]);
    }
  };
  std::future<void> files_interned;
  // The file task references this frame: wait for it on every way out.
  struct Await {
    std::future<void>& task;
    ~Await() {
      if (task.valid()) task.wait();
    }
  } await_files{files_interned};
  if (workers != nullptr) {
    files_interned = workers->submit(intern_files);
  } else {
    intern_files();
  }

  // 2LD ids: hostnames in hostname order, then referrer-only 2LDs in
  // request order.
  auto& agg_of = out.agg_of_;
  agg_of.resize(num_hosts);
  for (std::uint32_t s = 0; s < num_hosts; ++s) {
    if (s + kAhead < num_hosts) out.servers_.prefetch(host_hash[s + kAhead]);
    agg_of[s] = out.servers_.intern(host_2ld[s], host_hash[s]);
  }
  // Each request's 2LD, and the requests that carry a referrer.
  std::vector<std::uint32_t> agg_req(num_requests);
  const auto request_slices = even_slices(num_requests, parts);
  const auto slices = even_slices(parts, parts);  // 0, 1, ..., parts: fn(k, k + 1)
  std::vector<std::vector<std::uint32_t>> referred(parts);
  for_slices(workers, slices, [&](std::size_t k, std::size_t) {
    for (std::size_t r = request_slices[k]; r < request_slices[k + 1]; ++r) {
      agg_req[r] = agg_of[requests[r].server];
      if (!requests[r].referrer.empty()) referred[k].push_back(static_cast<std::uint32_t>(r));
    }
  });
  std::vector<std::uint32_t> referrer_of(num_requests, kNoReferrer);
  for (const auto& slice : referred) {
    for (const auto r : slice) {
      referrer_of[r] = out.servers_.intern(dns::effective_2ld_view(requests[r].referrer));
    }
  }
  const std::uint32_t num_servers = out.servers_.size();
  out.profiles_.resize(num_servers);

  // Aggregated redirects, last write wins, in hostname order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> raw_redirects(
      trace.redirects().begin(), trace.redirects().end());
  std::sort(raw_redirects.begin(), raw_redirects.end());
  for (const auto& [from, to] : raw_redirects) {
    const auto from_agg = agg_of[from];
    const auto to_agg = agg_of[to];
    if (from_agg != to_agg) out.redirects_[from_agg] = to_agg;
  }

  // Slices of consecutive 2LD ids with near-equal request counts, and the
  // requests and hostnames of each slice, in request and hostname order.
  // One slice fills each profile, visiting its requests in request order,
  // so every unordered container sees the insert sequence of a serial
  // walk.
  std::vector<std::uint32_t> requests_before(num_servers + 1, 0);
  for (const auto a : agg_req) ++requests_before[a + 1];
  for (std::uint32_t a = 0; a < num_servers; ++a) {
    requests_before[a + 1] += requests_before[a];
  }
  std::vector<std::size_t> slice_begin(parts + 1, num_servers);
  std::vector<std::uint32_t> slice_of(num_servers);
  for (std::size_t k = 0; k < parts; ++k) {
    slice_begin[k] = static_cast<std::size_t>(
        std::lower_bound(requests_before.begin(), requests_before.end() - 1,
                         num_requests * k / parts) -
        requests_before.begin());
  }
  for (std::size_t k = 0; k < parts; ++k) {
    std::fill(slice_of.begin() + slice_begin[k], slice_of.begin() + slice_begin[k + 1],
              static_cast<std::uint32_t>(k));
  }
  std::vector<std::uint32_t> request_begin, request_order, host_begin, host_order;
  group_by_key(num_requests, parts, [&](std::size_t r) { return slice_of[agg_req[r]]; },
               request_begin, request_order);
  group_by_key(num_hosts, parts, [&](std::size_t s) { return slice_of[agg_of[s]]; },
               host_begin, host_order);

  // The per-request id sets are sized for their profile's requests here,
  // one allocation each and all from this thread: storage the pool's
  // threads allocate stays in their malloc arenas once freed, and pools
  // come and go with every build.
  for (std::uint32_t a = 0; a < num_servers; ++a) {
    const std::uint32_t n = requests_before[a + 1] - requests_before[a];
    out.profiles_[a].clients.reserve(n);
    out.profiles_[a].files.reserve(n);
  }

  // Every profile field but `files`.
  for_slices(workers, slices, [&](std::size_t k, std::size_t) {
    std::string pattern;
    for (std::uint32_t i = request_begin[k]; i < request_begin[k + 1]; ++i) {
      if (i + kAhead < request_begin[k + 1]) {
        const std::uint32_t ahead = request_order[i + kAhead];
        __builtin_prefetch(&requests[ahead]);
        __builtin_prefetch(&out.profiles_[agg_req[ahead]]);
      }
      const std::uint32_t r = request_order[i];
      const net::HttpRequest& req = requests[r];
      ServerProfile& p = out.profiles_[agg_req[r]];
      insert_unless_repeat(p.clients, req.client);
      insert_unless_repeat(p.days, req.day);
      p.user_agents.insert(req.user_agent);
      net::param_pattern_into(req.path, pattern);
      if (!pattern.empty()) p.param_patterns.insert(pattern);
      if (referrer_of[r] != kNoReferrer) ++p.referrer_counts[referrer_of[r]];
      ++p.requests;
      if (net::is_error_status(req.status)) ++p.error_requests;
    }
    for (std::uint32_t i = host_begin[k]; i < host_begin[k + 1]; ++i) {
      ServerProfile& p = out.profiles_[agg_of[host_order[i]]];
      for (const auto ip : trace.ips_of(host_order[i])) p.ips.insert(ip);
    }
    for (std::size_t a = slice_begin[k]; a < slice_begin[k + 1]; ++a) {
      out.profiles_[a].clients.normalize();
      out.profiles_[a].ips.normalize();
      out.profiles_[a].days.normalize();
    }
  });

  // Phase 3, finish: every profile's files, once their ids are in.
  if (files_interned.valid()) files_interned.get();
  for_slices(workers, slices, [&](std::size_t k, std::size_t) {
    for (std::uint32_t i = request_begin[k]; i < request_begin[k + 1]; ++i) {
      if (i + kAhead < request_begin[k + 1]) {
        __builtin_prefetch(&out.profiles_[agg_req[request_order[i + kAhead]]].files);
      }
      const std::uint32_t r = request_order[i];
      insert_unless_repeat(out.profiles_[agg_req[r]].files, file_of[r]);
    }
    for (std::size_t a = slice_begin[k]; a < slice_begin[k + 1]; ++a) {
      out.profiles_[a].files.normalize();
    }
  });
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
  PreprocessResult out{AggregatedTrace::build(trace, config.num_threads), {}, {}};
  out.total_requests = trace.num_requests();
  apply_idf_filter(out, config);
  return out;
}

}  // namespace smash::core
