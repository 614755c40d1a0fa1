// Preprocessing (paper §III-A): 2LD aggregation and IDF popularity filter.
//
// Aggregation maps every requested hostname to its effective 2LD and
// merges per-server state; the IDF filter then removes servers contacted
// by more than `idf_threshold` distinct clients. What remains is the
// server population the four dimensions operate on.
//
// AggregatedTrace::build runs in three phases on `num_threads` threads
// (inline at 1 thread):
//   1. parse, in parallel chunks: each hostname's 2LD (a view into the
//      name, dns::effective_2ld_view) and the interner hashes of the 2LDs
//      and of every request's URI file;
//   2. intern: one pool thread interns the URI files in request order,
//      while the others intern the 2LDs (hostnames in hostname order, then
//      referrer-only 2LDs in request order), cut the 2LDs into slices of
//      near-equal request counts and fill every profile field but `files`,
//      slice by slice, each profile's requests in request order;
//   3. finish: fill and normalize `files`, slice by slice.
// Ids and every field, down to the iteration order of the unordered
// containers, are those of one serial walk over the requests, at any
// thread count (tests/preprocess_oracle.h holds that walk as the oracle).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/smash_config.h"
#include "net/trace.h"
#include "util/id_set.h"
#include "util/interner.h"

namespace smash::core {

// Everything the dimensions and the evaluation need to know about one
// aggregated (2LD) server.
struct ServerProfile {
  util::IdSet clients;  // distinct trace client ids
  util::IdSet ips;      // trace ip ids the server resolved to
  util::IdSet days;     // days with at least one request
  // Distinct URI files observed in requests to this server (global file
  // interner ids; the empty filename of "/" is interned like any other).
  util::IdSet files;
  std::unordered_set<std::string> user_agents;
  std::unordered_set<std::string> param_patterns;
  // Aggregated referrer host -> number of requests carrying it.
  std::unordered_map<std::uint32_t, std::uint32_t> referrer_counts;
  std::uint32_t requests = 0;
  std::uint32_t error_requests = 0;  // 4xx/5xx
};

class AggregatedTrace {
 public:
  // Builds profiles for every 2LD server in the trace, on `num_threads`
  // threads (0 counts as 1); see the phases above. The result is the same
  // for every thread count. Transient state: about 24 bytes per request
  // and 28 per hostname, freed on return.
  static AggregatedTrace build(const net::Trace& trace, unsigned num_threads = 1);

  // Assembles an AggregatedTrace from already-merged parts (the streaming
  // engine's per-epoch shard caches, core/preshard.h). `servers` is the 2LD
  // interner, `profiles` parallel to it; `agg_of` the window's hostname id
  // -> 2LD id map. The caller guarantees the parts are exactly what build()
  // would have produced for the assembled window.
  static AggregatedTrace from_parts(
      util::Interner servers, util::Interner files,
      std::vector<ServerProfile> profiles,
      std::unordered_map<std::uint32_t, std::uint32_t> redirects,
      std::vector<std::uint32_t> agg_of);

  const util::Interner& servers() const noexcept { return servers_; }
  const util::Interner& files() const noexcept { return files_; }
  const std::vector<ServerProfile>& profiles() const noexcept { return profiles_; }
  const ServerProfile& profile(std::uint32_t server) const { return profiles_.at(server); }
  const std::string& server_name(std::uint32_t server) const {
    return servers_.name(server);
  }

  // Aggregated redirect edges: 2LD server -> 2LD redirect target.
  const std::unordered_map<std::uint32_t, std::uint32_t>& redirects() const noexcept {
    return redirects_;
  }

  // Aggregated (2LD) id of every hostname id of the source trace. Server
  // 2LDs take ids in hostname order; referrer-only 2LDs follow them, in
  // request order.
  const std::vector<std::uint32_t>& agg_of() const noexcept { return agg_of_; }

  std::uint32_t num_servers_before_aggregation() const noexcept {
    return static_cast<std::uint32_t>(agg_of_.size());
  }

 private:
  util::Interner servers_;  // 2LD names
  util::Interner files_;    // URI file strings
  std::vector<ServerProfile> profiles_;
  std::unordered_map<std::uint32_t, std::uint32_t> redirects_;
  std::vector<std::uint32_t> agg_of_;
};

struct PreprocessResult {
  AggregatedTrace agg;
  // Aggregated server ids that survive the IDF filter, ascending.
  std::vector<std::uint32_t> kept;
  // kept-index of each aggregated server, or -1 if filtered.
  std::vector<std::int32_t> kept_index_of;

  // Stats for Table I-style reporting and the Fig. 9 bench.
  std::uint64_t total_requests = 0;
  std::uint64_t requests_after_filter = 0;
  std::uint32_t servers_before_aggregation = 0;
  std::uint32_t servers_after_aggregation = 0;
  std::uint32_t servers_after_filter = 0;

  std::uint32_t kept_id(std::uint32_t kept_idx) const { return kept.at(kept_idx); }
};

PreprocessResult preprocess(const net::Trace& trace, const SmashConfig& config);

// The filter tail of preprocess(): fills the aggregation stats and the
// kept/kept_index_of IDF-filter output from `out.agg`. Shared by
// preprocess() and the streaming shard merge (core/preshard.h) so both
// paths keep identical semantics. Expects `out.agg` (and total_requests)
// to be set; overwrites the rest.
void apply_idf_filter(PreprocessResult& out, const SmashConfig& config);

}  // namespace smash::core
