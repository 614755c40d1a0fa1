#include "graph/louvain.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace smash::graph {

namespace {

constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

// Renumber arbitrary community labels to [0, k) preserving first-seen
// order. Labels are always < labels.size() (they start as node ids or
// dense community ids), so a flat remap array suffices.
std::uint32_t renumber(std::vector<std::uint32_t>& labels) {
  std::vector<std::uint32_t> remap(labels.size(), kUnset);
  std::uint32_t next = 0;
  for (auto& label : labels) {
    if (remap[label] == kUnset) remap[label] = next++;
    label = remap[label];
  }
  return next;
}

// Dense weight-to-adjacent-community accumulator with a touched list; all
// zero between nodes.
struct MoveScratch {
  std::vector<double> weight_to_comm;
  std::vector<std::uint32_t> touched;

  void reset(std::uint32_t n) {
    weight_to_comm.assign(n, 0.0);
    touched.clear();
    touched.reserve(64);
  }
};

// Picks the best community for `v` under the given community/tot state:
// tot is read as if v had been removed from its own community
// (tot[old] - k_v), and candidates are scanned in ascending community id
// so the tie-break is independent of adjacency order. Pure apart from
// `scratch`, which is left zeroed.
std::uint32_t best_move(const Graph& g, std::uint32_t v,
                        const std::vector<std::uint32_t>& community_of,
                        const std::vector<double>& tot, double inv_m,
                        const LouvainOptions& options, MoveScratch& scratch) {
  const std::uint32_t old_comm = community_of[v];
  const double k_v = g.weighted_degree(v);
  auto& weight_to_comm = scratch.weight_to_comm;
  auto& touched = scratch.touched;

  touched.clear();
  touched.push_back(old_comm);  // moving back is always an option
  for (const auto& nb : g.neighbors(v)) {
    if (nb.node == v) continue;  // self-loop does not affect the gain delta
    const std::uint32_t c = community_of[nb.node];
    if (weight_to_comm[c] == 0.0 && c != old_comm) touched.push_back(c);
    weight_to_comm[c] += nb.weight;
  }

  // v removed from its community for the gain computation.
  const double tot_old = tot[old_comm] - k_v;

  // Gain of joining community c (relative, constant terms dropped):
  //   dQ(c) = w(v->c)/m - tot[c]*k_v/(2m^2)
  // We compare 2m*dQ = 2*w(v->c) - tot[c]*k_v/m to avoid divisions.
  std::sort(touched.begin(), touched.end());
  std::uint32_t best_comm = old_comm;
  double best_gain = 2.0 * weight_to_comm[old_comm] - tot_old * k_v * inv_m;
  for (const std::uint32_t comm : touched) {
    const double tot_c = comm == old_comm ? tot_old : tot[comm];
    const double gain = 2.0 * weight_to_comm[comm] - tot_c * k_v * inv_m;
    if (gain > best_gain + options.min_modularity_gain ||
        (gain > best_gain && comm < best_comm)) {
      best_gain = gain;
      best_comm = comm;
    }
  }
  for (const std::uint32_t comm : touched) weight_to_comm[comm] = 0.0;
  return best_comm;
}

// One level of local moving. Returns the (renumbered) node -> community map
// and whether anything moved.
struct LevelResult {
  std::vector<std::uint32_t> community_of;
  std::uint32_t num_communities = 0;
  bool improved = false;
};

// Serial sweeps: visit nodes in id order, each seeing every earlier move
// of the same sweep.
void serial_sweeps(const Graph& g, const LouvainOptions& options,
                   std::vector<std::uint32_t>& community_of,
                   std::vector<double>& tot, double inv_m, bool& improved,
                   LouvainStats& stats) {
  const std::uint32_t n = g.num_nodes();
  MoveScratch scratch;
  scratch.reset(n);

  for (int sweep = 0; sweep < options.max_sweeps_per_level; ++sweep) {
    SMASH_SPAN("louvain.sweep");
    ++stats.sweeps;
    bool moved_this_sweep = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t old_comm = community_of[v];
      const double k_v = g.weighted_degree(v);
      const std::uint32_t best =
          best_move(g, v, community_of, tot, inv_m, options, scratch);
      ++stats.evaluated_nodes;
      // Remove v, re-add to the winner (same slot when best == old_comm —
      // the -k_v/+k_v round trip is NOT always a floating-point no-op, and
      // the partition depends on it).
      tot[old_comm] -= k_v;
      tot[best] += k_v;
      if (best != old_comm) {
        community_of[v] = best;
        moved_this_sweep = true;
        improved = true;
        ++stats.moves;
      }
    }
    if (!moved_this_sweep) break;
  }
}

LevelResult local_moving(const Graph& g, const LouvainOptions& options,
                         LouvainStats& stats) {
  const std::uint32_t n = g.num_nodes();
  const double two_m = 2.0 * g.total_weight();

  LevelResult result;
  result.community_of.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) result.community_of[v] = v;
  if (two_m <= 0.0) {
    result.num_communities = n;
    return result;  // edgeless graph: all singletons
  }
  const double inv_m = 1.0 / g.total_weight();

  // tot[c]: sum of weighted degrees of nodes in community c.
  std::vector<double> tot(n, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) tot[v] = g.weighted_degree(v);

  serial_sweeps(g, options, result.community_of, tot, inv_m, result.improved,
                stats);

  result.num_communities = renumber(result.community_of);
  return result;
}

// Aggregate: one node per community; edge weights summed; intra-community
// weight becomes a self-loop. Community-bucketed counting sort over the
// nodes, then a dense per-community weight accumulator — no hash maps.
Graph aggregate(const Graph& g, const std::vector<std::uint32_t>& community_of,
                std::uint32_t num_communities) {
  const std::uint32_t n = g.num_nodes();

  // Counting sort: members of community c are
  // members[start[c] .. start[c+1]), ascending (nodes visited in order).
  std::vector<std::uint32_t> start(num_communities + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) ++start[community_of[v] + 1];
  for (std::uint32_t c = 0; c < num_communities; ++c) start[c + 1] += start[c];
  std::vector<std::uint32_t> members(n);
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::uint32_t v = 0; v < n; ++v) members[cursor[community_of[v]]++] = v;
  }

  GraphBuilder builder(num_communities);
  std::vector<double> weight_to(num_communities, 0.0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t cu = 0; cu < num_communities; ++cu) {
    touched.clear();
    for (std::uint32_t idx = start[cu]; idx < start[cu + 1]; ++idx) {
      const std::uint32_t u = members[idx];
      for (const auto& nb : g.neighbors(u)) {
        const std::uint32_t cv = community_of[nb.node];
        // Each undirected edge is accumulated exactly once: from its
        // lower-community endpoint, and within a community from its
        // lower-id endpoint (self-loops pass the second test).
        if (cv < cu) continue;
        if (cv == cu && nb.node < u) continue;
        if (weight_to[cv] == 0.0) touched.push_back(cv);
        weight_to[cv] += nb.weight;
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::uint32_t cv : touched) {
      builder.add_edge(cu, cv, weight_to[cv]);
      weight_to[cv] = 0.0;
    }
  }
  return std::move(builder).build();
}

}  // namespace

std::vector<std::vector<std::uint32_t>> LouvainResult::groups() const {
  std::vector<std::vector<std::uint32_t>> out(num_communities);
  for (std::uint32_t v = 0; v < community_of.size(); ++v) {
    out[community_of[v]].push_back(v);
  }
  return out;
}

LouvainResult louvain(const Graph& g, const LouvainOptions& options) {
  const std::uint32_t n = g.num_nodes();
  LouvainResult result;
  result.community_of.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) result.community_of[v] = v;
  result.num_communities = n;

  Graph level_graph;          // graph at the current level
  const Graph* current = &g;  // avoids copying the input for level 0

  for (int level = 0; level < options.max_levels; ++level) {
    LevelResult lvl = local_moving(*current, options, result.stats);
    if (!lvl.improved && level > 0) break;

    // Compose: original node -> level community.
    for (std::uint32_t v = 0; v < n; ++v) {
      result.community_of[v] = lvl.community_of[result.community_of[v]];
    }
    result.num_communities = lvl.num_communities;
    result.levels = level + 1;

    if (!lvl.improved) break;  // level 0 with nothing to move
    if (lvl.num_communities == current->num_nodes()) break;  // no merge happened

    level_graph = aggregate(*current, lvl.community_of, lvl.num_communities);
    current = &level_graph;
  }

  result.num_communities = renumber(result.community_of);
  result.modularity = modularity(g, result.community_of);
  return result;
}

LouvainResult louvain_refined(const Graph& g, const LouvainOptions& options) {
  LouvainResult base = louvain(g, options);
  LouvainStats stats = base.stats;

  // Work queue of communities to try splitting (member lists over g).
  std::vector<std::vector<std::uint32_t>> queue = base.groups();
  std::vector<std::vector<std::uint32_t>> final_groups;

  // Dense node -> local-subgraph id map, reused across queue entries and
  // reset via the member list (kUnset marks non-members).
  std::vector<std::uint32_t> local_id(g.num_nodes(), kUnset);

  while (!queue.empty()) {
    std::vector<std::uint32_t> members = std::move(queue.back());
    queue.pop_back();
    if (members.size() <= 3) {
      final_groups.push_back(std::move(members));
      continue;
    }

    // Induced subgraph over `members`.
    for (std::uint32_t i = 0; i < members.size(); ++i) local_id[members[i]] = i;
    GraphBuilder builder(static_cast<std::uint32_t>(members.size()));
    for (auto u : members) {
      for (const auto& nb : g.neighbors(u)) {
        if (nb.node < u) continue;
        if (local_id[nb.node] == kUnset) continue;
        builder.add_edge(local_id[u], local_id[nb.node], nb.weight);
      }
    }
    for (auto u : members) local_id[u] = kUnset;
    const Graph sub = std::move(builder).build();
    const LouvainResult split = louvain(sub, options);
    stats += split.stats;

    if (split.num_communities <= 1) {
      final_groups.push_back(std::move(members));
      continue;
    }
    // Each part strictly smaller than `members`, so this terminates.
    for (auto& part : split.groups()) {
      std::vector<std::uint32_t> mapped;
      mapped.reserve(part.size());
      for (auto local : part) mapped.push_back(members[local]);
      queue.push_back(std::move(mapped));
    }
  }

  LouvainResult out;
  out.community_of.assign(g.num_nodes(), 0);
  out.num_communities = static_cast<std::uint32_t>(final_groups.size());
  out.levels = base.levels;
  out.stats = stats;
  for (std::uint32_t c = 0; c < final_groups.size(); ++c) {
    for (auto node : final_groups[c]) out.community_of[node] = c;
  }
  out.modularity = modularity(g, out.community_of);
  return out;
}

double modularity(const Graph& g, const std::vector<std::uint32_t>& community_of) {
  if (community_of.size() != g.num_nodes()) {
    throw std::invalid_argument("modularity: partition size mismatch");
  }
  const double two_m = 2.0 * g.total_weight();
  if (two_m <= 0.0) return 0.0;

  std::uint32_t max_label = 0;
  for (auto c : community_of) max_label = std::max(max_label, c);
  std::vector<double> in(max_label + 1, 0.0);   // 2x intra-community weight
  std::vector<double> tot(max_label + 1, 0.0);  // sum of weighted degrees

  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    tot[community_of[u]] += g.weighted_degree(u);
    for (const auto& nb : g.neighbors(u)) {
      if (community_of[nb.node] == community_of[u]) {
        // Each non-loop edge appears twice in the scan; self-loops appear
        // once but count twice toward `in`.
        in[community_of[u]] += nb.node == u ? 2.0 * nb.weight : nb.weight;
      }
    }
  }

  double q = 0.0;
  for (std::size_t c = 0; c < in.size(); ++c) {
    q += in[c] / two_m - (tot[c] / two_m) * (tot[c] / two_m);
  }
  return q;
}

}  // namespace smash::graph
