// DetectionSnapshot: an immutable verdict index built from one mined
// window, published RCU-style (stream/engine.h) and read wait-free of the
// mining path by the
// VerdictService. Once built, a snapshot is never mutated; readers hold a
// shared_ptr so a snapshot stays alive until the last in-flight lookup
// drops it, no matter how many newer windows have been published since.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "stream/ingest.h"
#include "stream/stream_config.h"
#include "util/strings.h"

namespace smash::stream {

// Verdict for one malicious server (2LD) or server IP.
struct ServerVerdict {
  std::uint32_t campaign = 0;          // index into campaigns()
  std::uint32_t campaign_servers = 0;  // size of that campaign
  bool single_client = false;          // Appendix C population
  // Sliding-window activity of this 2LD, from the ingestor's incrementally
  // merged WindowAggregates (how loud the server was, and in how many of
  // the window's epochs).
  std::uint64_t window_requests = 0;
  std::uint32_t active_epochs = 0;
};

// One inferred campaign, resolved to names for serving.
struct SnapshotCampaign {
  std::vector<std::string> servers;  // 2LD names, in kept-index order
  std::uint32_t involved_clients = 0;
  bool single_client = false;
};

class DetectionSnapshot {
 public:
  // Builds the index from a mined window. `window_ips` must be the IP
  // interner of the window the result was mined from (the assembled
  // trace's, or the shard merge's — identical by construction);
  // `aggregates` the sliding-window per-2LD stats for the same window and
  // `ingest` the ingest counters at the close that produced it. `sequence`
  // counts epoch closes, not publications: a jump of more than one records
  // intermediate windows skipped by a multi-epoch gap or by async-mining
  // coalescing. `recovery` is carried verbatim (all-zero for engines that
  // never recovered). `build_hook`, when set, runs after the header fields
  // are staged but before campaign assembly (StreamConfig::
  // snapshot_test_hook); an exception it throws aborts the build before
  // anything is published.
  static std::shared_ptr<const DetectionSnapshot> build(
      const core::SmashResult& result, const util::Interner& window_ips,
      std::size_t window_requests, const WindowAggregates& aggregates,
      const IngestStats& ingest, EpochId first_epoch, EpochId last_epoch,
      std::uint64_t sequence, RecoveryStats recovery = {},
      const std::function<void()>& build_hook = {});

  // Verdict for any requested hostname (aggregated to its effective 2LD
  // first, mirroring preprocessing), or nullptr when not flagged.
  const ServerVerdict* find_host(std::string_view host) const;

  // Verdict for a server IP observed in the window's resolutions.
  const ServerVerdict* find_ip(std::string_view ip) const;

  const std::vector<SnapshotCampaign>& campaigns() const noexcept {
    return campaigns_;
  }
  std::size_t num_malicious_servers() const noexcept { return by_2ld_.size(); }

  EpochId first_epoch() const noexcept { return first_epoch_; }
  EpochId last_epoch() const noexcept { return last_epoch_; }
  std::uint64_t sequence() const noexcept { return sequence_; }
  std::chrono::steady_clock::time_point built_at() const noexcept {
    return built_at_;
  }

  // Window facts carried for reporting.
  std::size_t window_requests() const noexcept { return window_requests_; }
  std::size_t kept_servers() const noexcept { return kept_servers_; }

  // True when any dimension's join hit the postings cap while mining this
  // window: the window exceeded the in-RAM postings budget and similarity
  // counts may undercount (JoinStats), so verdicts may miss associations.
  bool postings_budget_exceeded() const noexcept {
    return postings_budget_exceeded_;
  }

  // Join memory pressure while mining this window (SmashResult
  // aggregates): total key-range passes across the dimension joins (more
  // passes than joins = SmashConfig::join_memory_budget_bytes forced
  // bounded-memory sharding) and the largest single-join resident
  // postings footprint in bytes. Operators can watch these instead of
  // waiting for the undercount flag above.
  std::size_t join_shard_passes() const noexcept { return join_shard_passes_; }
  std::size_t peak_resident_postings_bytes() const noexcept {
    return peak_resident_postings_bytes_;
  }

  // Louvain work while mining this window, summed across the dimensions
  // (SmashResult::louvain_stats()): sweeps/moves/evaluated_nodes describe
  // how hard community detection converged. Like the join counters above,
  // pure observability — verdicts are byte-identical for every thread
  // count.
  const graph::LouvainStats& louvain_stats() const noexcept {
    return louvain_stats_;
  }

  // Ingest counters at the close that produced this snapshot — data loss
  // (late-dropped events) is observable next to the verdicts it may have
  // affected, never silent.
  const IngestStats& ingest_stats() const noexcept { return ingest_stats_; }
  std::uint64_t late_dropped() const noexcept {
    return ingest_stats_.late_dropped;
  }
  std::uint64_t late_folded() const noexcept {
    return ingest_stats_.late_folded;
  }

  // How this engine's state was rebuilt, when it came from
  // StreamEngine::recover(); all-zero otherwise.
  const RecoveryStats& recovery_stats() const noexcept { return recovery_stats_; }

  // Deterministic, humanly diffable rendering of every verdict-bearing
  // field (campaigns, per-2LD and per-IP verdicts sorted by key, window
  // facts, ingest counters). Two snapshots over identical windows digest
  // identically even across processes — the crash-recovery matrix compares
  // pre-kill and post-recovery runs through this.
  std::string digest() const;

 private:
  DetectionSnapshot() = default;

  std::unordered_map<std::string, ServerVerdict> by_2ld_;
  util::StringMap<ServerVerdict> by_ip_;
  std::vector<SnapshotCampaign> campaigns_;
  EpochId first_epoch_ = 0;
  EpochId last_epoch_ = 0;
  std::uint64_t sequence_ = 0;
  std::size_t window_requests_ = 0;
  std::size_t kept_servers_ = 0;
  bool postings_budget_exceeded_ = false;
  std::size_t join_shard_passes_ = 0;
  std::size_t peak_resident_postings_bytes_ = 0;
  graph::LouvainStats louvain_stats_{};
  IngestStats ingest_stats_{};
  RecoveryStats recovery_stats_{};
  std::chrono::steady_clock::time_point built_at_{};
};

}  // namespace smash::stream
