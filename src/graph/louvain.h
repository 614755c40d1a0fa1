// Louvain community detection (Blondel, Guillaume, Lambiotte, Lefebvre,
// "Fast unfolding of communities in large networks", J. Stat. Mech. 2008) —
// the clustering algorithm SMASH uses on every similarity graph (paper
// §III-B1, reference [17]).
//
// Two repeated phases:
//   1. Local moving: greedily move nodes to the neighbor community with the
//      highest modularity gain until no move improves modularity.
//   2. Aggregation: collapse each community to one node (intra-community
//      weight becomes a self-loop) and recurse.
//
// Deterministic: node visit order is by id (no RNG), so identical inputs
// produce identical partitions — required for reproducible tables. Local
// moving is serial: each sweep visits nodes in id order, and every move
// sees the moves before it. (Chunked thread-parallel sweeps measured slower
// than this at 4 threads on every graph size; see docs/PERF.md.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace smash::graph {

struct LouvainOptions {
  // Stop a local-moving sweep cycle when a full pass gains less than this.
  double min_modularity_gain = 1e-7;
  // Safety cap on aggregation levels (real traces need < 10).
  int max_levels = 32;
  // Cap on full sweeps per level.
  int max_sweeps_per_level = 64;
};

// Work counters of one louvain()/louvain_refined() call, summed over all
// aggregation levels and refinement passes.
struct LouvainStats {
  std::size_t sweeps = 0;           // local-moving sweeps, all levels
  std::size_t evaluated_nodes = 0;  // node move evaluations
  std::size_t moves = 0;            // accepted community moves

  LouvainStats& operator+=(const LouvainStats& other) noexcept {
    sweeps += other.sweeps;
    evaluated_nodes += other.evaluated_nodes;
    moves += other.moves;
    return *this;
  }

  friend bool operator==(const LouvainStats&, const LouvainStats&) = default;
};

struct LouvainResult {
  // community_of[node] in [0, num_communities), labels densely renumbered.
  std::vector<std::uint32_t> community_of;
  std::uint32_t num_communities = 0;
  double modularity = 0.0;  // of the final partition on the input graph
  int levels = 0;           // aggregation levels performed
  LouvainStats stats;       // work counters (see above)

  // Nodes grouped by community, each sorted ascending. Singleton
  // communities are included; callers typically filter them.
  std::vector<std::vector<std::uint32_t>> groups() const;
};

// Runs Louvain on `g`. Isolated nodes end up in singleton communities.
LouvainResult louvain(const Graph& g, const LouvainOptions& options = {});

// Louvain with recursive refinement: after the global pass, each community
// is re-clustered on its *induced subgraph*; communities that split are
// replaced by their parts, recursively, until stable.
//
// Why: plain modularity suffers the resolution limit — in a large sparse
// graph, two small dense groups joined by a single weak edge merge because
// the expected-edge term is ~0. SMASH's similarity graphs are exactly that
// shape (campaign cliques bridged through a shared benign server or a
// doubly-infected client), and eq. (9) weights herds by density, so the
// agglomerated low-density herds would suppress every campaign score. On
// the induced subgraph the total weight m is small, the expected-edge term
// is meaningful, and bridges split off. Cliques are stable under
// refinement, so campaign herds survive intact. Stats accumulate over the
// base pass and every refinement pass.
LouvainResult louvain_refined(const Graph& g, const LouvainOptions& options = {});

// Modularity Q of an arbitrary partition of `g`:
//   Q = sum_c [ in_c / 2m  -  (tot_c / 2m)^2 ]
// where in_c is total intra-community edge weight (each direction counted,
// self-loops twice) and tot_c the sum of weighted degrees.
double modularity(const Graph& g, const std::vector<std::uint32_t>& community_of);

}  // namespace smash::graph
