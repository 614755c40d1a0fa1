// All tunables of the SMASH pipeline in one place. Defaults follow the
// paper where it gives values (IDF threshold 200, filename len 25, cosine
// 0.8, mu = 4, sigma = 5.5, thresh 0.8 multi-client / 1.0 single-client);
// per-dimension graph edge cut-offs are our choices (the paper leaves them
// unspecified) and are documented in README.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/louvain.h"

namespace smash::obs {
class Registry;
}  // namespace smash::obs

namespace smash::core {

struct SmashConfig {
  // --- preprocessing (paper §III-A, Appendix A) -----------------------------
  // Servers contacted by more than this many distinct clients are removed
  // as "popular".
  std::uint32_t idf_threshold = 200;

  // --- dimension graphs (paper §III-B) --------------------------------------
  // Minimum eq. (1) client similarity for a main-dimension edge.
  double client_edge_threshold = 0.2;
  // Minimum URI-file-class similarity (bidirectional form of eq. (7)).
  double file_edge_threshold = 0.04;
  // Minimum eq. (8) IP-set similarity.
  double ip_edge_threshold = 0.25;
  // Whois: minimum shared non-proxy fields (paper: 2).
  int whois_min_shared_fields = 2;

  // URI-file similarity, eqs. (2)-(6): filenames longer than `len` are
  // compared by character-frequency cosine instead of equality.
  std::uint32_t filename_len_threshold = 25;  // Appendix B
  double filename_cosine_threshold = 0.8;

  // Safety caps for the inverted-index joins (unit: items per postings
  // list). A URI file served by more servers than `file_postings_cap`
  // (default 1500) is treated as a stop-file (index.html and friends);
  // eq. (7)'s normalization makes such files uninformative anyway.
  // `join_postings_cap` (default 20000) bounds every other join's pair
  // explosion. Both caps fire on a key's FULL postings length, so their
  // semantics are independent of num_threads and of
  // join_memory_budget_bytes; a fired cap undercounts and is reported via
  // JoinStats / SmashResult::postings_budget_exceeded(). Do NOT lower
  // these to save memory — set join_memory_budget_bytes instead, which
  // bounds memory without undercounting.
  std::uint32_t file_postings_cap = 1500;
  std::uint32_t join_postings_cap = 20000;

  // --- correlation (paper §III-C, eq. (9)) ----------------------------------
  double mu = 4.0;     // promotes groups larger than 4
  double sigma = 5.5;  // steepness of the erf curve
  // `thresh`: servers scoring below are removed. The paper sweeps
  // {0.5, 0.8, 1.0, 1.5} and operates at 0.8 for campaigns with >= 2
  // clients and 1.0 for single-client campaigns (§V-A, footnote 9).
  double score_threshold = 0.8;
  double single_client_score_threshold = 1.0;

  // --- extensions (paper §VI) --------------------------------------------------
  // Adds the parameter-pattern secondary dimension (recovers the paper's
  // §V-A2 false negatives that share only "p=&id=&e="-style structure).
  bool enable_param_dimension = false;
  double param_edge_threshold = 0.15;
  // Patterns shared by more servers than this are structural noise
  // ("id=" alone) and are skipped, like the URI-file stop-file cap.
  std::uint32_t param_postings_cap = 1500;

  // --- execution ---------------------------------------------------------------
  // Worker threads for preprocessing and ASH mining (unit: threads;
  // default 1 = fully serial): preprocess() builds the AggregatedTrace in
  // parallel phases, dimensions are mined concurrently and the
  // client/file/whois joins are probe-range sharded across the leftover
  // threads. Results are identical for any thread count (the build keeps
  // a serial walk's ids and insert order, each dimension is independent,
  // and the sharded join reproduces the serial output exactly).
  unsigned num_threads = 1;

  // Upper bound on the resident postings-index memory of any one
  // similarity join (unit: bytes; default 0 = unbounded, single in-RAM
  // pass). Every join runs graph::cooccurrence_join_sharded with this
  // budget; when it is set, the key universe is partitioned into passes
  // sized from the observed key cardinalities, passes run sequentially
  // (re-probing the items once per pass), and the per-pass outputs merge
  // into a result byte-identical to the unbounded join — week-scale batch
  // windows complete exactly instead of relying on lowered postings caps
  // that undercount. Interactions: with num_threads > 1 the concurrent
  // dimension fan-out divides this budget across the dimensions mined in
  // parallel, so the SUM of simultaneously resident postings indexes stays
  // within budget. Each dimension keeps a floor of a quarter of its even
  // share and the rest goes in proportion to estimated postings entries,
  // so the client join (by far the largest index) gets most of it. Within
  // a pass, probe sharding adds 4 bytes × kept-servers of counter scratch
  // per thread, which is NOT counted against the budget (it is
  // output-side, not postings-side). The only case a pass exceeds the
  // budget is a single key whose postings alone do — reported in
  // JoinStats::peak_resident_postings_bytes, never silent. The trade is
  // memory for passes: S passes re-scan the probe sets S times (see
  // docs/MEMORY.md for the worked week-scale numbers).
  std::size_t join_memory_budget_bytes = 0;

  // --- pruning (paper §III-D) -------------------------------------------------
  // A server is "referred by" a host if at least this fraction of its
  // requests carry that Referer; a group is a referrer group if every
  // member shares the same dominant referrer. At 0.5 or below several
  // hosts can qualify: the one on the most requests is the dominant
  // referrer, ties going to the lowest 2LD id.
  double referrer_dominance = 0.8;

  // Optional metrics sink (not owned; may be null = no metrics). When
  // set, each pipeline run records per-stage and per-dimension duration
  // histograms into it (catalog in docs/OBSERVABILITY.md). The streaming
  // engine points this at its own registry so batch re-mines and stream
  // metrics land on one surface; batch callers can pass
  // &obs::Registry::global() or any registry that outlives the pipeline.
  // Mined output never depends on this pointer.
  obs::Registry* metrics = nullptr;

  // Community-detection tunables, passed to every dimension's Louvain run
  // as they are. Louvain is serial; num_threads does not reach it.
  graph::LouvainOptions louvain;

  // Convenience: same threshold for both campaign classes (used by the
  // table benches when sweeping `thresh`).
  SmashConfig with_threshold(double thresh) const {
    SmashConfig out = *this;
    out.score_threshold = thresh;
    out.single_client_score_threshold = thresh;
    return out;
  }
};

}  // namespace smash::core
