#include "core/dimensions.h"

#include <algorithm>
#include <stdexcept>

#include <chrono>

#include "core/file_classifier.h"
#include "graph/louvain.h"
#include "graph/similarity_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/interner.h"
#include "util/thread_pool.h"

namespace smash::core {

namespace {

// Shared tail of every dimension builder: threshold edges -> graph ->
// Louvain -> size >= 2 communities with their densities.
DimensionAshes extract_ashes(Dimension dimension, graph::GraphBuilder builder,
                             const SmashConfig& config) {
  DimensionAshes out;
  out.dimension = dimension;
  const std::uint32_t n = builder.num_nodes();
  graph::Graph g = std::move(builder).build();
  out.graph_edges = g.num_edges();

  obs::Span louvain_span("mine.louvain", dimension_name(dimension).data());
  const auto louvain_result = graph::louvain_refined(g, config.louvain);
  louvain_span.finish();
  out.modularity = louvain_result.modularity;
  out.louvain_stats = louvain_result.stats;

  out.ash_of.assign(n, -1);
  for (auto& group : louvain_result.groups()) {
    if (group.size() < 2) continue;
    Ash ash;
    ash.members = std::move(group);
    ash.density = graph::subset_density(g, ash.members);
    const auto ash_index = static_cast<std::int32_t>(out.ashes.size());
    for (auto member : ash.members) out.ash_of[member] = ash_index;
    out.ashes.push_back(std::move(ash));
  }
  return out;
}

// Estimated postings entries of each dimension's join, from the aggregate
// profiles alone (no key sets are built): the client/IP joins index exactly
// the profile id sets, the file/param joins index classed/interned forms of
// them (an upper bound), and the whois join indexes at most one entry per
// non-empty record field. Cheap — one pass over the kept profiles — and
// deterministic; used only to weight the budget split below, so being an
// estimate can never change mined output.
std::vector<std::size_t> estimate_postings_entries(const PreprocessResult& pre,
                                                   const whois::Registry& registry,
                                                   int dimensions) {
  std::vector<std::size_t> entries(dimensions, 0);
  for (auto server : pre.kept) {
    const auto& profile = pre.agg.profile(server);
    entries[static_cast<int>(Dimension::kClient)] += profile.clients.size();
    entries[static_cast<int>(Dimension::kFile)] += profile.files.size();
    entries[static_cast<int>(Dimension::kIp)] += profile.ips.size();
    if (dimensions > kNumDimensions) {
      entries[static_cast<int>(Dimension::kParam)] +=
          profile.param_patterns.size();
    }
    if (const whois::Record* rec = registry.find(pre.agg.server_name(server))) {
      for (int f = 0; f < whois::kNumFields; ++f) {
        if (!rec->value(static_cast<whois::Field>(f)).empty()) {
          ++entries[static_cast<int>(Dimension::kWhois)];
        }
      }
    }
  }
  return entries;
}

// Splits join_memory_budget_bytes across the concurrently-mined dimensions:
// every dimension is guaranteed a floor of a quarter of its even share (so
// a small index is never starved into shard passes by a dominant sibling),
// and the remaining ~3/4 of the budget is distributed in proportion to
// each dimension's estimated postings entries — in practice the client
// join dwarfs the others and stops paying re-probe passes for budget
// parked on tiny dimensions. The slices sum to at most the budget (plus
// one byte per dimension from the floor-to-1), and the split affects pass
// counts only, never mined output.
std::vector<std::size_t> split_join_budget(const PreprocessResult& pre,
                                           const whois::Registry& registry,
                                           int dimensions,
                                           std::size_t budget) {
  const auto even_share =
      std::max<std::size_t>(budget / static_cast<std::size_t>(dimensions), 1);
  std::vector<std::size_t> slices(dimensions);
  const auto entries = estimate_postings_entries(pre, registry, dimensions);
  unsigned __int128 total_weight = 0;
  // +1 per dimension: a zero-entry dimension still gets a sliver, and the
  // division below can never divide by zero.
  for (auto e : entries) total_weight += e + 1;
  const std::size_t floor = std::max<std::size_t>(even_share / 4, 1);
  const std::size_t reserved = floor * static_cast<std::size_t>(dimensions);
  const std::size_t distributable = budget > reserved ? budget - reserved : 0;
  for (int d = 0; d < dimensions; ++d) {
    const auto weighted = static_cast<unsigned __int128>(distributable) *
                          (entries[d] + 1) / total_weight;
    slices[d] = floor + static_cast<std::size_t>(weighted);
  }
  return slices;
}

}  // namespace

std::string_view dimension_name(Dimension d) noexcept {
  switch (d) {
    case Dimension::kClient: return "client";
    case Dimension::kFile: return "uri-file";
    case Dimension::kIp: return "ip-set";
    case Dimension::kWhois: return "whois";
    case Dimension::kParam: return "param-pattern";
  }
  return "?";
}

const char* dimension_mine_span_name(Dimension d) noexcept {
  switch (d) {
    case Dimension::kClient: return "mine.client";
    case Dimension::kFile: return "mine.uri_file";
    case Dimension::kIp: return "mine.ip_set";
    case Dimension::kWhois: return "mine.whois";
    case Dimension::kParam: return "mine.param";
  }
  return "mine.unknown";
}

const char* dimension_mine_histogram_name(Dimension d) noexcept {
  switch (d) {
    case Dimension::kClient: return "pipeline.mine_ms.client";
    case Dimension::kFile: return "pipeline.mine_ms.uri_file";
    case Dimension::kIp: return "pipeline.mine_ms.ip_set";
    case Dimension::kWhois: return "pipeline.mine_ms.whois";
    case Dimension::kParam: return "pipeline.mine_ms.param";
  }
  return "pipeline.mine_ms.unknown";
}

unsigned dimension_join_threads(Dimension dimension,
                                const SmashConfig& config) noexcept {
  switch (dimension) {
    case Dimension::kClient:
    case Dimension::kFile:
    case Dimension::kWhois:
      return config.num_threads;
    default:
      return 1;
  }
}

std::vector<SmashConfig> per_dimension_mining_configs(
    const PreprocessResult& pre, const whois::Registry& registry,
    const SmashConfig& config, int dimensions) {
  std::vector<SmashConfig> out(dimensions, config);
  if (config.num_threads <= 1) return out;
  const auto other_dimensions = static_cast<unsigned>(dimensions - 1);
  for (int d = 0; d < dimensions; ++d) {
    out[d].num_threads =
        static_cast<Dimension>(d) == Dimension::kClient
            ? (config.num_threads > other_dimensions
                   ? config.num_threads - other_dimensions
                   : 1)
            : 1;
  }
  if (config.join_memory_budget_bytes > 0) {
    const auto slices = split_join_budget(pre, registry, dimensions,
                                          config.join_memory_budget_bytes);
    for (int d = 0; d < dimensions; ++d) {
      out[d].join_memory_budget_bytes = slices[d];
    }
  }
  return out;
}

std::size_t DimensionAshes::num_herded_servers() const {
  std::size_t count = 0;
  for (const auto& ash : ashes) count += ash.members.size();
  return count;
}

std::vector<std::uint32_t> canonical_mining_order(const PreprocessResult& pre) {
  std::vector<std::uint32_t> order(pre.kept.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&pre](std::uint32_t a, std::uint32_t b) {
              return pre.agg.server_name(pre.kept[a]) <
                     pre.agg.server_name(pre.kept[b]);
            });
  return order;
}

DimensionJoinInput build_dimension_join_input(
    Dimension dimension, const PreprocessResult& pre,
    const whois::Registry& registry, const SmashConfig& config,
    std::vector<std::uint32_t> canon_to_kept, unsigned join_threads) {
  DimensionJoinInput input;
  input.dimension = dimension;
  input.canon_to_kept = std::move(canon_to_kept);
  input.join_threads = join_threads;
  const std::size_t n = input.canon_to_kept.size();
  input.canon_names.reserve(n);
  for (const auto k : input.canon_to_kept) {
    input.canon_names.push_back(pre.agg.server_name(pre.kept[k]));
  }
  input.key_sets.reserve(n);

  switch (dimension) {
    case Dimension::kClient:
      for (const auto k : input.canon_to_kept) {
        input.key_sets.push_back(pre.agg.profile(pre.kept[k]).clients);
      }
      input.edge_threshold = config.client_edge_threshold;
      input.postings_cap = config.join_postings_cap;
      break;

    case Dimension::kIp:
      for (const auto k : input.canon_to_kept) {
        input.key_sets.push_back(pre.agg.profile(pre.kept[k]).ips);
      }
      input.edge_threshold = config.ip_edge_threshold;
      input.postings_cap = config.join_postings_cap;
      break;

    case Dimension::kFile: {
      const FileClassifier classifier(pre.agg.files(),
                                      config.filename_len_threshold,
                                      config.filename_cosine_threshold);
      util::IdSet set;
      for (const auto k : input.canon_to_kept) {
        const auto& files = pre.agg.profile(pre.kept[k]).files;
        set.reserve(files.size());
        for (auto file : files) set.insert(classifier.class_of(file));
        set.normalize();
        input.key_sets.push_back(util::IdSet::from_sorted_unique(set.release()));
      }
      input.edge_threshold = config.file_edge_threshold;
      input.postings_cap = config.file_postings_cap;
      break;
    }

    case Dimension::kParam: {
      util::Interner patterns;
      util::IdSet set;
      for (const auto k : input.canon_to_kept) {
        const auto& raw = pre.agg.profile(pre.kept[k]).param_patterns;
        set.reserve(raw.size());
        for (const auto& pattern : raw) set.insert(patterns.intern(pattern));
        set.normalize();
        input.key_sets.push_back(util::IdSet::from_sorted_unique(set.release()));
      }
      input.edge_threshold = config.param_edge_threshold;
      input.postings_cap = config.param_postings_cap;
      break;
    }

    case Dimension::kWhois: {
      // Candidate pairs share at least `whois_min_shared_fields` field
      // values; each (field, value) is interned so the co-occurrence count
      // *is* the number of shared fields. Proxy values are skipped up
      // front.
      util::Interner values;
      std::string key;  // "<field>\x1f<value>", reused across fields
      input.key_sets.resize(n);
      for (std::size_t c = 0; c < n; ++c) {
        const whois::Record* rec = registry.find(input.canon_names[c]);
        if (rec == nullptr) continue;
        auto& fields = input.key_sets[c];
        fields.reserve(whois::kNumFields);
        for (int f = 0; f < whois::kNumFields; ++f) {
          const auto field = static_cast<whois::Field>(f);
          const auto& value = rec->value(field);
          if (value.empty() || registry.is_proxy_value(value)) continue;
          key.assign(whois::field_name(field));
          key += '\x1f';
          key += value;
          fields.insert(values.intern(key));
        }
        fields.normalize();
      }
      input.min_shared =
          static_cast<std::uint32_t>(config.whois_min_shared_fields);
      input.union_weight = true;
      input.postings_cap = config.join_postings_cap;
      break;
    }
  }
  return input;
}

std::vector<graph::Edge> weight_dimension_pairs(
    const DimensionJoinInput& input,
    std::span<const graph::CooccurrencePair> pairs) {
  std::vector<graph::Edge> edges;
  edges.reserve(pairs.size());
  if (input.union_weight) {
    for (const auto& pair : pairs) {
      const auto shared = pair.shared_keys;
      const auto unioned = static_cast<std::uint32_t>(
          input.key_sets[pair.a].size() + input.key_sets[pair.b].size() -
          shared);
      if (unioned == 0) continue;
      edges.push_back({pair.a, pair.b,
                       static_cast<double>(shared) /
                           static_cast<double>(unioned)});
    }
  } else {
    for (const auto& pair : pairs) {
      const double sim = graph::bidirectional_similarity(
          pair.shared_keys, input.key_sets[pair.a].size(),
          input.key_sets[pair.b].size());
      if (sim >= input.edge_threshold) edges.push_back({pair.a, pair.b, sim});
    }
  }
  return edges;
}

DimensionAshes extract_canonical_ashes(const DimensionJoinInput& input,
                                       std::span<const graph::Edge> edges,
                                       const SmashConfig& config) {
  graph::GraphBuilder builder(
      static_cast<std::uint32_t>(input.key_sets.size()));
  for (const auto& edge : edges) builder.add_edge(edge.u, edge.v, edge.weight);
  return extract_ashes(input.dimension, std::move(builder), config);
}

DimensionAshes remap_ashes_to_kept(DimensionAshes canonical,
                                   std::span<const std::uint32_t> canon_to_kept) {
  DimensionAshes out = std::move(canonical);
  std::vector<std::int32_t> ash_of(canon_to_kept.size(), -1);
  for (std::size_t c = 0; c < out.ash_of.size(); ++c) {
    ash_of[canon_to_kept[c]] = out.ash_of[c];
  }
  out.ash_of = std::move(ash_of);
  for (auto& ash : out.ashes) {
    for (auto& member : ash.members) member = canon_to_kept[member];
    std::sort(ash.members.begin(), ash.members.end());
  }
  return out;
}

namespace {

// mine_dimension over a precomputed canonical_mining_order(pre), so
// mine_all_dimensions sorts the kept-server names once per mine.
DimensionAshes mine_dimension_in_order(Dimension dimension,
                                       const PreprocessResult& pre,
                                       const whois::Registry& registry,
                                       const SmashConfig& config,
                                       std::vector<std::uint32_t> order) {
  SMASH_SPAN(dimension_mine_span_name(dimension));
  const auto start = std::chrono::steady_clock::now();
  const auto input = build_dimension_join_input(
      dimension, pre, registry, config, std::move(order),
      dimension_join_threads(dimension, config));

  graph::JoinOptions join_options;
  join_options.max_postings_length = input.postings_cap;
  graph::JoinStats stats;
  obs::Span join_span("mine.join", dimension_name(dimension).data());
  // Budget 0 is unbounded: one in-RAM pass.
  const auto pairs = graph::cooccurrence_join_sharded(
      input.key_sets, input.min_shared, join_options,
      config.join_memory_budget_bytes, input.join_threads, &stats);
  join_span.finish();

  const auto edges = weight_dimension_pairs(input, pairs);
  DimensionAshes canonical = extract_canonical_ashes(input, edges, config);
  canonical.join_stats = stats;
  DimensionAshes out = remap_ashes_to_kept(std::move(canonical), input.canon_to_kept);
  if (config.metrics != nullptr) {
    config.metrics->latency_histogram_ms(dimension_mine_histogram_name(dimension))
        .observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return out;
}

}  // namespace

DimensionAshes mine_dimension(Dimension dimension, const PreprocessResult& pre,
                              const whois::Registry& registry,
                              const SmashConfig& config) {
  return mine_dimension_in_order(dimension, pre, registry, config,
                                 canonical_mining_order(pre));
}

std::vector<DimensionAshes> mine_all_dimensions(const PreprocessResult& pre,
                                                const whois::Registry& registry,
                                                const SmashConfig& config) {
  const int dimensions = config.enable_param_dimension ? kNumDimensions + 1
                                                       : kNumDimensions;
  std::vector<DimensionAshes> out(dimensions);
  const auto order = canonical_mining_order(pre);
  if (config.num_threads <= 1) {
    for (int d = 0; d < dimensions; ++d) {
      out[d] = mine_dimension_in_order(static_cast<Dimension>(d), pre, registry,
                                       config, order);
    }
    return out;
  }
  // Dimensions are independent (each reads `pre`/`registry` and writes only
  // its own slot), so the result is identical for any thread count. Inside
  // the fan-out, only the client dimension — much the largest join — gets
  // the threads left over once every other dimension has a worker; the
  // file/whois joins run their serial path here so the total number of
  // active threads stays within config.num_threads (three concurrent
  // sharded joins would otherwise each spawn a leftover-sized pool). Their
  // sharding still engages when a dimension is mined on its own.
  //
  // Budget-aware fan-out: dimensions mined concurrently hold postings
  // indexes at the same time, so each gets a slice of the join memory
  // budget, weighted by estimated postings cardinality (see
  // split_join_budget), and the sum of simultaneously resident postings
  // stays within config.join_memory_budget_bytes. (Each dimension's
  // planner then picks its own pass count from that slice and its observed
  // key cardinalities; the serial path above runs dimensions one at a
  // time, so each gets the full budget there.) The split never changes
  // mined output, only pass counts. Both rules live in
  // per_dimension_mining_configs.
  const auto dim_configs =
      per_dimension_mining_configs(pre, registry, config, dimensions);
  // parallel_for drains on the calling thread as well as the pool workers,
  // so size the pool one short of the budget.
  util::ThreadPool pool(std::min(config.num_threads - 1,
                                 static_cast<unsigned>(dimensions - 1)));
  util::parallel_for(pool, static_cast<std::size_t>(dimensions),
                     [&](std::size_t d) {
                       out[d] = mine_dimension_in_order(
                           static_cast<Dimension>(d), pre, registry,
                           dim_configs[d], order);
                     });
  return out;
}

}  // namespace smash::core
