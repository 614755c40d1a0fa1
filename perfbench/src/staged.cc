#include "staged.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/correlation.h"
#include "core/dimensions.h"
#include "core/pruning.h"
#include "graph/similarity_join.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using smash::core::Dimension;

constexpr int kDimensions = smash::core::kNumDimensions;

// Campaign assembly, mirroring the tail of core/pipeline.cc (it has no
// public entry point of its own). The digest and campaign comparisons in
// the traced runs catch any drift between this and the program.
std::vector<std::vector<std::uint32_t>> merge_by_main_herd(
    const std::vector<std::vector<std::uint32_t>>& groups,
    const smash::core::DimensionAshes& main) {
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
    for (const auto member : groups[g]) {
      const auto herd = main.ash_of[member];
      if (herd < 0) continue;
      const auto [it, inserted] = first_group_of_herd.emplace(herd, g);
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
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> involved_clients_of(const smash::core::PreprocessResult& pre,
                                               const std::vector<std::uint32_t>& members) {
  std::unordered_map<std::uint32_t, std::uint32_t> appearances;
  for (const auto member : members) {
    for (const auto client : pre.agg.profile(pre.kept[member]).clients) {
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

// One dimension's layer samples, filled on whichever thread mines it.
struct DimensionSample {
  double join_input_ms = 0, join_ms = 0, weight_ms = 0, louvain_ms = 0;
  double candidates = 0, moves = 0, edges = 0;
};

smash::core::DimensionAshes staged_dimension(
    Dimension dimension, const smash::core::PreprocessResult& pre,
    const smash::whois::Registry& registry, const smash::core::SmashConfig& config,
    SpanRecorder& spans, std::uint64_t id, int parent, DimensionSample& sample) {
  const std::string name(smash::core::dimension_name(dimension));
  ScopedSpan dim_span(&spans, "dim." + name, id, parent);

  ScopedSpan input_span(&spans, "core.join_input." + name, id, dim_span.index());
  auto input = smash::core::build_dimension_join_input(
      dimension, pre, registry, config, smash::core::canonical_mining_order(pre),
      smash::core::dimension_join_threads(dimension, config));
  input_span.finish();

  ScopedSpan join_span(&spans, "graph.join." + name, id, dim_span.index());
  smash::graph::JoinOptions join_options;
  join_options.max_postings_length = input.postings_cap;
  smash::graph::JoinStats stats;
  std::vector<smash::graph::CooccurrencePair> pairs;
  if (config.join_memory_budget_bytes > 0) {
    pairs = smash::graph::cooccurrence_join_sharded(
        input.key_sets, input.min_shared, join_options,
        config.join_memory_budget_bytes, input.join_threads, &stats);
  } else if (input.join_threads > 1) {
    pairs = smash::graph::cooccurrence_join_parallel(
        input.key_sets, input.min_shared, join_options, input.join_threads, &stats);
  } else {
    pairs = smash::graph::cooccurrence_join(input.key_sets, input.min_shared,
                                            join_options, &stats);
  }
  join_span.finish();

  ScopedSpan weight_span(&spans, "core.weight." + name, id, dim_span.index());
  const auto edges = smash::core::weight_dimension_pairs(input, pairs);
  weight_span.finish();

  ScopedSpan louvain_span(&spans, "graph.louvain." + name, id, dim_span.index());
  auto ashes = smash::core::extract_canonical_ashes(input, edges, config);
  louvain_span.finish();
  ashes.join_stats = stats;
  auto out = smash::core::remap_ashes_to_kept(std::move(ashes), input.canon_to_kept);
  dim_span.finish();

  sample.join_input_ms = spans.ms(input_span.index());
  sample.join_ms = spans.ms(join_span.index());
  sample.weight_ms = spans.ms(weight_span.index());
  sample.louvain_ms = spans.ms(louvain_span.index());
  sample.candidates = static_cast<double>(stats.candidate_pairs);
  sample.moves = static_cast<double>(out.louvain_stats.moves);
  sample.edges = static_cast<double>(out.graph_edges);
  return out;
}

}  // namespace

void LayerSamples::report_medians(Report& report) const {
  for (const auto& [name, series] : series_) {
    report.metric(name, median(series.values), series.unit);
  }
}

std::vector<std::string> dimension_names() {
  std::vector<std::string> out;
  for (int d = 0; d < kDimensions; ++d) {
    out.emplace_back(smash::core::dimension_name(static_cast<Dimension>(d)));
  }
  return out;
}

smash::core::SmashResult staged_mine(smash::core::PreprocessResult pre,
                                     const smash::whois::Registry& registry,
                                     const smash::core::SmashConfig& config,
                                     SpanRecorder& spans, std::uint64_t id,
                                     int parent, LayerSamples& samples) {
  smash::core::SmashResult result;
  result.pre = std::move(pre);
  result.dims.resize(kDimensions);
  std::vector<DimensionSample> dim_samples(kDimensions);

  ScopedSpan mine_span(&spans, "core.mine", id, parent);
  if (config.num_threads <= 1) {
    for (int d = 0; d < kDimensions; ++d) {
      result.dims[d] = staged_dimension(static_cast<Dimension>(d), result.pre, registry,
                                        config, spans, id, mine_span.index(),
                                        dim_samples[d]);
    }
  } else {
    const auto configs = smash::core::per_dimension_mining_configs(
        result.pre, registry, config, kDimensions);
    smash::util::ThreadPool pool(
        std::min(config.num_threads - 1, static_cast<unsigned>(kDimensions - 1)));
    smash::util::parallel_for(pool, kDimensions, [&](std::size_t d) {
      result.dims[d] = staged_dimension(static_cast<Dimension>(d), result.pre, registry,
                                        configs[d], spans, id, mine_span.index(),
                                        dim_samples[d]);
    });
  }
  mine_span.finish();

  ScopedSpan correlate_span(&spans, "core.correlate", id, parent);
  result.correlation = smash::core::correlate(result.pre, result.dims, config);
  correlate_span.finish();

  ScopedSpan prune_span(&spans, "core.prune", id, parent);
  result.pruned = smash::core::prune(result.pre, result.correlation.groups, config);
  prune_span.finish();

  ScopedSpan campaigns_span(&spans, "core.campaigns", id, parent);
  const auto& main = result.dims[static_cast<int>(Dimension::kClient)];
  for (auto& members : merge_by_main_herd(result.pruned.groups, main)) {
    smash::core::Campaign campaign;
    campaign.involved_clients = involved_clients_of(result.pre, members);
    campaign.servers = std::move(members);
    result.campaigns.push_back(std::move(campaign));
  }
  campaigns_span.finish();

  const auto names = dimension_names();
  for (int d = 0; d < kDimensions; ++d) {
    const auto& s = dim_samples[d];
    samples.add("core.join_input_ms." + names[d], s.join_input_ms, "ms");
    samples.add("core.weight_ms." + names[d], s.weight_ms, "ms");
    samples.add("graph.join_ms." + names[d], s.join_ms, "ms");
    samples.add("graph.join_candidates." + names[d], s.candidates, "count");
    samples.add("graph.louvain_ms." + names[d], s.louvain_ms, "ms");
    samples.add("graph.louvain_moves." + names[d], s.moves, "count");
    samples.add("graph.edges." + names[d], s.edges, "count");
  }
  samples.add("core.correlate_ms", spans.ms(correlate_span.index()), "ms");
  samples.add("core.prune_ms", spans.ms(prune_span.index()), "ms");
  return result;
}

}  // namespace perfbench
