// Micro perf baseline: the two hot kernels (co-occurrence join, Louvain)
// timed against reference implementations, written to BENCH_micro.json so
// later PRs have a trajectory to compare against.
//
// Usage: perf_micro [output.json]   (default: BENCH_micro.json)
//
// The join comparison at 10k items / 32 keys-per-item is the acceptance
// workload for the dense-counter rewrite: "dense" (flat CSR postings +
// probe-side scoring array) must beat "hashmap" (the seed's packed-pair
// unordered_map, kept as cooccurrence_join_reference) by >= 3x. The run
// FAILS (exit 2) if the join variants disagree on pair counts.
//
// The Louvain section times plain and refined Louvain on planted cliques.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "graph/louvain.h"
#include "graph/similarity_join.h"

namespace {

using smash::graph::cooccurrence_join;
using smash::graph::cooccurrence_join_parallel;
using smash::graph::cooccurrence_join_reference;
using smash::graph::LouvainResult;

// Set when any join variant disagrees on pair counts; main() turns it into
// a nonzero exit so CI fails on kernel divergence instead of shipping it.
bool g_join_mismatch = false;

void bench_join(smash::bench::JsonReporter& report, std::uint32_t items,
                std::uint32_t keys_per_item, int repeats) {
  // Key space scales with items (sparse, ISP-like overlap structure) —
  // same generator and seed as bench/micro_similarity.cc.
  const auto data =
      smash::bench::random_key_sets(items, keys_per_item, items * 2, 7);
  const std::string suffix =
      std::to_string(items) + "x" + std::to_string(keys_per_item);

  // Each variant keeps its own pair count so a divergence between
  // implementations shows up in the JSON instead of being overwritten.
  smash::graph::JoinStats stats;
  std::size_t dense_pairs = 0;
  const double dense_ms = smash::bench::time_best_ms(repeats, [&] {
    dense_pairs = cooccurrence_join(data, 1, {}, &stats).size();
  });
  std::size_t hashmap_pairs = 0;
  const double hashmap_ms = smash::bench::time_best_ms(repeats, [&] {
    hashmap_pairs = cooccurrence_join_reference(data).size();
  });
  std::size_t parallel_pairs = 0;
  const double parallel_ms = smash::bench::time_best_ms(repeats, [&] {
    parallel_pairs = cooccurrence_join_parallel(data, 1, {}, 4).size();
  });

  report.add("join/hashmap/" + suffix, hashmap_ms,
             {{"pairs", static_cast<double>(hashmap_pairs)}});
  report.add("join/dense/" + suffix, dense_ms,
             {{"pairs", static_cast<double>(dense_pairs)},
              {"speedup_vs_hashmap", hashmap_ms / dense_ms},
              {"candidate_pairs", static_cast<double>(stats.candidate_pairs)},
              {"peak_postings_length",
               static_cast<double>(stats.peak_postings_length)}});
  report.add("join/dense_parallel4/" + suffix, parallel_ms,
             {{"pairs", static_cast<double>(parallel_pairs)},
              {"speedup_vs_hashmap", hashmap_ms / parallel_ms}});
  std::printf("join %-9s hashmap %9.3f ms   dense %9.3f ms (%.2fx)   parallel4 %9.3f ms\n",
              suffix.c_str(), hashmap_ms, dense_ms, hashmap_ms / dense_ms,
              parallel_ms);
  if (dense_pairs != hashmap_pairs || parallel_pairs != hashmap_pairs) {
    std::fprintf(stderr,
                 "join %s: pair-count mismatch (hashmap %zu, dense %zu, "
                 "parallel %zu)\n",
                 suffix.c_str(), hashmap_pairs, dense_pairs, parallel_pairs);
    g_join_mismatch = true;
  }
}

void bench_louvain(smash::bench::JsonReporter& report, std::uint32_t cliques,
                   int repeats) {
  // Same generator and seed as bench/micro_louvain.cc.
  const auto g = smash::bench::planted_clique_graph(cliques, 8, 0.5, 11);
  const std::string suffix = std::to_string(cliques) + "x8";

  LouvainResult plain;
  const double plain_ms = smash::bench::time_best_ms(repeats, [&] {
    plain = smash::graph::louvain(g);
  });
  std::uint32_t communities = 0;
  const double refined_ms = smash::bench::time_best_ms(repeats, [&] {
    communities = smash::graph::louvain_refined(g).num_communities;
  });

  report.add("louvain/plain/" + suffix, plain_ms, {{"Q", plain.modularity}});
  report.add("louvain/refined/" + suffix, refined_ms,
             {{"communities", static_cast<double>(communities)},
              {"planted", static_cast<double>(cliques)}});
  std::printf("louvain %-9s plain %9.3f ms   refined %9.3f ms\n",
              suffix.c_str(), plain_ms, refined_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_micro.json";
  smash::bench::JsonReporter report("micro");

  bench_join(report, 1000, 16, 5);
  bench_join(report, 10000, 32, 3);  // the acceptance workload
  bench_louvain(report, 200, 5);
  bench_louvain(report, 2000, 3);
  bench_louvain(report, 20000, 2);  // 160k nodes

  if (!report.write(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return g_join_mismatch ? 2 : 0;
}
