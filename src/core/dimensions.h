// ASH mining (paper §III-B): one similarity graph per dimension over the
// preprocessed servers, Louvain community detection on each, communities
// of size >= 2 become the dimension's Associated Server Herds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/preprocess.h"
#include "core/smash_config.h"
#include "graph/graph.h"
#include "graph/similarity_join.h"
#include "whois/whois.h"

namespace smash::core {

enum class Dimension : std::uint8_t {
  kClient = 0,  // main dimension, eq. (1)
  kFile = 1,    // eqs. (2)-(7)
  kIp = 2,      // eq. (8)
  kWhois = 3,
  // Extension (paper §V-A2 false-negative analysis + §VI Extensions):
  // servers sharing URI *parameter patterns* ("p=&id=&e="). Off by default
  // (SmashConfig::enable_param_dimension) to keep the paper's exact
  // four-dimension configuration; turning it on recovers the Cycbot-shaped
  // misses that share only parameter structure.
  kParam = 4,
};
inline constexpr int kNumDimensions = 4;  // the paper's configuration
inline constexpr int kNumSecondaryDimensions = 3;

std::string_view dimension_name(Dimension d) noexcept;

// Span / latency-histogram names of one dimension's mine (string literals —
// trace slots store the pointer, registry keys must be stable).
const char* dimension_mine_span_name(Dimension d) noexcept;
const char* dimension_mine_histogram_name(Dimension d) noexcept;

// Per-dimension probe-thread budget of a mining path: the client, file and
// whois joins are the large ones and get the configured threads; ip and
// param stay serial.
unsigned dimension_join_threads(Dimension dimension,
                                const SmashConfig& config) noexcept;

// The effective per-dimension configs of mine_all_dimensions: identity
// copies of `config` on the serial path (num_threads <= 1); on the
// concurrent fan-out every dimension but the client one is pinned to one
// thread, the client dimension gets the leftover threads, and a non-zero
// join_memory_budget_bytes is split across the slots (weighted by estimated
// postings cardinality). Exposed so a staged caller can run each
// dimension under the exact config the fan-out would.
std::vector<SmashConfig> per_dimension_mining_configs(
    const PreprocessResult& pre, const whois::Registry& registry,
    const SmashConfig& config, int dimensions);

struct Ash {
  std::vector<std::uint32_t> members;  // kept-indices, ascending
  double density = 0.0;                // w(.) of eq. (9)
};

struct DimensionAshes {
  Dimension dimension = Dimension::kClient;
  std::vector<Ash> ashes;
  // kept-index -> ash index, or -1 when the server is in no herd (isolated
  // or singleton community) for this dimension.
  std::vector<std::int32_t> ash_of;
  // Graph stats, for reports and the micro benches.
  std::size_t graph_edges = 0;
  double modularity = 0.0;
  // Counters of this dimension's candidate-pair join. skipped_keys > 0
  // means the postings cap fired and shared-key counts undercount for the
  // affected pairs — streaming snapshots surface this so a window that
  // exceeded the in-RAM postings budget is observable, not silent.
  // shard_passes / peak_resident_postings_bytes record how hard
  // SmashConfig::join_memory_budget_bytes squeezed this join (1 pass =
  // the whole index fit; more passes = bounded-memory key-range sharding
  // engaged, output unchanged).
  graph::JoinStats join_stats;
  // Work counters of this dimension's Louvain run (refined; base pass +
  // every refinement pass summed). Louvain is serial, so these, like the
  // partition, are the same at every thread count.
  graph::LouvainStats louvain_stats;

  std::size_t num_herded_servers() const;

  bool postings_budget_exceeded() const noexcept {
    return join_stats.skipped_keys > 0;
  }
};

// Canonical mining order: indices into pre.kept sorted by server name
// (unique within a window). Every dimension graph is built and partitioned
// in this order — Louvain is order-dependent, and the name order does not
// depend on how a window's servers were interned — and the ashes are
// remapped back to kept-index space at the end. The batch and streaming
// paths share this, so their outputs stay byte-identical.
std::vector<std::uint32_t> canonical_mining_order(const PreprocessResult& pre);

// One dimension's join-stage input: the key sets the join runs over,
// factored out so staged callers can time the input build, the join and
// Louvain separately. Nodes are in canonical (name-sorted) order; key ids
// are window-local (dense, re-interned per window).
struct DimensionJoinInput {
  Dimension dimension = Dimension::kClient;
  // canon_to_kept[c] = index into pre.kept of canonical node c; ascending
  // by server name.
  std::vector<std::uint32_t> canon_to_kept;
  std::vector<std::string_view> canon_names;  // aligned; backed by pre.agg
  std::vector<util::IdSet> key_sets;          // per canonical node
  std::uint32_t min_shared = 1;
  double edge_threshold = 0.0;  // unused by the union-weight (whois) form
  std::uint32_t postings_cap = 0;
  bool union_weight = false;    // whois: w = shared / union, no threshold
  unsigned join_threads = 1;
};

DimensionJoinInput build_dimension_join_input(
    Dimension dimension, const PreprocessResult& pre,
    const whois::Registry& registry, const SmashConfig& config,
    std::vector<std::uint32_t> canon_to_kept, unsigned join_threads);

// Thresholded similarity edges (canonical space, ascending (u, v)) from
// the join's co-occurrence pairs, under this dimension's weight form.
std::vector<graph::Edge> weight_dimension_pairs(
    const DimensionJoinInput& input,
    std::span<const graph::CooccurrencePair> pairs);

// Louvain + herd extraction over canonical-space edges. The result is in
// canonical space (members / ash_of indexed by canonical node);
// join_stats is left default.
DimensionAshes extract_canonical_ashes(const DimensionJoinInput& input,
                                       std::span<const graph::Edge> edges,
                                       const SmashConfig& config);

// Remaps a canonical-space result to kept-index space (members ascending).
DimensionAshes remap_ashes_to_kept(DimensionAshes canonical,
                                   std::span<const std::uint32_t> canon_to_kept);

// Builds the similarity graph for `dimension` over pre.kept and extracts
// ASHs. `registry` is only used by the Whois dimension. The join runs
// graph::cooccurrence_join_sharded under config.join_memory_budget_bytes
// (0 = one in-RAM pass), probing across dimension_join_threads threads;
// mined output is identical for every thread count and budget.
DimensionAshes mine_dimension(Dimension dimension, const PreprocessResult& pre,
                              const whois::Registry& registry,
                              const SmashConfig& config);

// All dimensions, indexed by Dimension: the paper's four, plus kParam when
// config.enable_param_dimension is set. With config.num_threads > 1 the
// dimensions are mined concurrently (the client join gets the leftover
// threads) and a non-zero join_memory_budget_bytes is divided across the
// concurrently-mined dimensions in proportion to each dimension's
// estimated postings cardinality, so total resident postings memory stays
// within the budget. The split changes pass counts only, never mined
// output.
std::vector<DimensionAshes> mine_all_dimensions(const PreprocessResult& pre,
                                                const whois::Registry& registry,
                                                const SmashConfig& config);

}  // namespace smash::core
