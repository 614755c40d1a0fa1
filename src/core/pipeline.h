// End-to-end SMASH pipeline (paper Fig. 2): preprocessing -> ASH mining ->
// correlation -> pruning -> malicious campaign inference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/correlation.h"
#include "core/dimensions.h"
#include "core/preprocess.h"
#include "core/pruning.h"
#include "core/smash_config.h"
#include "net/trace.h"
#include "util/interner.h"
#include "whois/whois.h"

namespace smash::core {

struct Campaign {
  // Inferred malicious servers, as kept-indices into pre.kept, ascending.
  std::vector<std::uint32_t> servers;
  // Clients involved in the campaign: present on more than half of the
  // member servers (a victim's drive-by visitors do not count).
  std::vector<std::uint32_t> involved_clients;  // trace client ids

  std::size_t size() const noexcept { return servers.size(); }
  bool single_client() const noexcept { return involved_clients.size() <= 1; }
};

struct SmashResult {
  PreprocessResult pre;
  std::vector<DimensionAshes> dims;  // indexed by Dimension
  CorrelationResult correlation;
  PruneResult pruned;
  std::vector<Campaign> campaigns;

  const std::string& server_name(std::uint32_t kept_idx) const {
    return pre.agg.server_name(pre.kept[kept_idx]);
  }
  const ServerProfile& server_profile(std::uint32_t kept_idx) const {
    return pre.agg.profile(pre.kept[kept_idx]);
  }

  // All servers across campaigns matching the client-count filter;
  // `single_client` selects the paper's Appendix C population, otherwise
  // the main (>= 2 clients) population of Tables II/III.
  std::vector<std::uint32_t> detected_servers(bool single_client) const;
  std::vector<const Campaign*> detected_campaigns(bool single_client) const;

  // True when any dimension's join hit its postings cap, i.e. this window
  // exceeded the in-RAM postings budget and similarity counts may
  // undercount (see JoinOptions::max_postings_length). Streaming snapshots
  // carry this flag so oversized windows are reported, never silent.
  bool postings_budget_exceeded() const noexcept;

  // Memory-pressure observables of the run's joins, aggregated across
  // dimensions (per-dimension detail stays on DimensionAshes::join_stats).
  // Total key-range passes: equals the number of joins run when every
  // postings index fit SmashConfig::join_memory_budget_bytes in one pass;
  // anything above that counts bounded-memory sharding at work.
  std::size_t join_shard_passes() const noexcept;
  // Largest single-join resident postings footprint (bytes). Under the
  // concurrent dimension fan-out the per-dimension budget split keeps even
  // the SUM of concurrent footprints within the configured budget —
  // except the degenerate case where one key's postings alone exceed a
  // dimension's slice (that pass overshoots, and this accessor shows it;
  // see JoinStats::peak_resident_postings_bytes).
  std::size_t peak_resident_postings_bytes() const noexcept;

  // Louvain work counters summed across the dimensions' community-detection
  // runs (per-dimension detail stays on DimensionAshes::louvain_stats).
  // Observability only; like the partitions, they are the same at every
  // thread count.
  graph::LouvainStats louvain_stats() const noexcept;
};

class SmashPipeline {
 public:
  explicit SmashPipeline(SmashConfig config = {}) : config_(config) {}

  const SmashConfig& config() const noexcept { return config_; }

  SmashResult run(const net::Trace& trace, const whois::Registry& registry) const;

  // Mining/correlation/pruning/inference over an already-preprocessed
  // window. Lets callers that maintain aggregates incrementally (the
  // streaming engine's epoch assembler) skip re-aggregation, and is the
  // tail of run().
  SmashResult run_preprocessed(PreprocessResult pre,
                               const whois::Registry& registry) const;

 private:
  SmashConfig config_;
};

}  // namespace smash::core
