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
// produce identical partitions — required for reproducible tables.
//
// Local moving can run in deterministic chunked-parallel sweeps
// (LouvainOptions::num_threads / chunk_size): nodes are partitioned into
// contiguous chunks, candidate moves for a chunk are evaluated concurrently
// against the community state frozen at chunk start, and accepted moves are
// applied serially in node order with a conflict check that re-evaluates any
// node whose frozen gains went stale. The applied trajectory is therefore
// exactly the serial greedy trajectory, so the partition is byte-identical
// for EVERY thread count and chunk size — including the default serial path
// (num_threads <= 1, chunk_size == 0), which is the seed implementation
// unchanged. See docs/ARCHITECTURE.md ("Chunked-sweep determinism").
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

  // --- chunked-parallel local moving ---------------------------------------
  // Worker threads for local moving (unit: threads). 0 or 1 = the seed's
  // serial sweep (no pool); > 1 = deterministic chunked sweeps on an
  // internal thread pool. Callers that already size a thread budget
  // (core::SmashConfig) leave this 0 and the pipeline substitutes its own
  // per-dimension thread count. The partition is identical either way.
  unsigned num_threads = 0;
  // Nodes per chunk of the chunked path (unit: nodes; 0 = auto, currently
  // 4096). Setting chunk_size > 0 forces the chunked evaluate/apply path
  // even at one thread — same output, exercised by the differential tests.
  std::uint32_t chunk_size = 0;
};

// Work counters of one louvain()/louvain_refined() call, summed over all
// aggregation levels and refinement passes. The partition never depends on
// threads or chunks; these counters make the execution shape observable:
//  - sweeps / moves / evaluated_nodes are invariant across num_threads AND
//    chunk_size (the chunked path replays the serial trajectory exactly);
//  - chunks and stale_reevals are 0 on the serial path and, on the chunked
//    path, depend on chunk_size but are invariant across num_threads
//    (evaluation is pure per node; the apply order is fixed).
struct LouvainStats {
  std::size_t sweeps = 0;           // local-moving sweeps, all levels
  std::size_t chunks = 0;           // chunk evaluate+apply rounds
  std::size_t evaluated_nodes = 0;  // frozen-state (or serial) evaluations
  std::size_t stale_reevals = 0;    // apply-phase re-evals on stale gains
  std::size_t moves = 0;            // accepted community moves

  LouvainStats& operator+=(const LouvainStats& other) noexcept {
    sweeps += other.sweeps;
    chunks += other.chunks;
    evaluated_nodes += other.evaluated_nodes;
    stale_reevals += other.stale_reevals;
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
  LouvainStats stats;       // execution-shape counters (see above)

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
// refinement, so campaign herds survive intact.
//
// Shares one thread pool across the base pass and every refinement pass
// (num_threads > 1); stats accumulate over all of them.
LouvainResult louvain_refined(const Graph& g, const LouvainOptions& options = {});

// Modularity Q of an arbitrary partition of `g`:
//   Q = sum_c [ in_c / 2m  -  (tot_c / 2m)^2 ]
// where in_c is total intra-community edge weight (each direction counted,
// self-loops twice) and tot_c the sum of weighted degrees.
double modularity(const Graph& g, const std::vector<std::uint32_t>& community_of);

}  // namespace smash::graph
