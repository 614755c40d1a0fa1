// VerdictService: the online front-end. Answers per-host / per-request
// verdicts from the engine's current DetectionSnapshot, from any number of
// threads, while the engine keeps publishing newer windows. Lookups never
// wait on mining; see SnapshotSlot (stream/engine.h) for the exact
// publication guarantee.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "obs/metrics.h"
#include "stream/engine.h"
#include "stream/snapshot.h"

namespace smash::stream {

struct VerdictAnswer {
  bool malicious = false;
  // Valid when malicious.
  ServerVerdict verdict{};
  // Which snapshot answered (0 / false before the first publication).
  bool snapshot_available = false;
  std::uint64_t snapshot_sequence = 0;
  EpochId snapshot_last_epoch = 0;
  // Age of the answering snapshot at lookup time: now - built_at(),
  // computed per lookup from the publish timestamp — never cached — so it
  // keeps growing while mining is stalled (the serve-layer staleness SLO
  // keys off it; tests/stream_test.cc pins the monotonicity). -1 when no
  // snapshot has been published yet.
  double snapshot_age_s = -1.0;
};

struct VerdictServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;  // queries answered "malicious"
  double hit_rate = 0.0;
  double qps = 0.0;             // queries / seconds since service start
  double snapshot_age_s = 0.0;  // now - current snapshot's build time
  std::uint64_t snapshot_sequence = 0;
  bool snapshot_available = false;
};

class VerdictService {
 public:
  // Sampling stride of the verdict.lookup_ns histogram: every
  // kLookupSampleStride-th lookup on each calling thread is timed, the
  // rest pay two relaxed counter increments only.
  // StreamObsGates.SampledLookupCountTracksStride (tests/obs_test.cc) holds
  // lookup_ns.count to lookups_total / kLookupSampleStride (within a
  // per-thread partial-stride tolerance); keep docs/OBSERVABILITY.md in
  // step with the stride.
  static constexpr std::uint32_t kLookupSampleStride = 64;

  // `slot` must outlive the service (it lives in the StreamEngine).
  //
  // Lookup accounting lives on an obs::Registry (verdict.lookups_total,
  // verdict.hits_total, verdict.lookup_ns — docs/OBSERVABILITY.md) instead
  // of bespoke per-service atomics. `metrics` selects the registry: null
  // (default) = a service-private one, so stats() keeps its per-instance
  // meaning; pass engine.metrics() to land lookups on the engine's surface
  // (then services sharing a registry share the counters, and stats()
  // reports the combined totals).
  explicit VerdictService(const SnapshotSlot& slot,
                          std::shared_ptr<obs::Registry> metrics = nullptr)
      : slot_(slot), start_(std::chrono::steady_clock::now()),
        metrics_(metrics ? std::move(metrics)
                         : std::make_shared<obs::Registry>()),
        lookups_(&metrics_->counter("verdict.lookups_total",
                                    "verdict lookups answered")),
        hits_(&metrics_->counter("verdict.hits_total",
                                 "lookups answered malicious")),
        lookup_ns_(&metrics_->histogram(
            "verdict.lookup_ns", obs::latency_buckets_ns(),
            "sampled (1/kLookupSampleStride) lookup latency")) {}

  // Verdict for a hostname (aggregated to its effective 2LD).
  VerdictAnswer lookup(std::string_view host) const;

  // Verdict for a full request: the Host header, then the contacted server
  // IP (catches requests straight to an IP of a flagged server).
  VerdictAnswer lookup_request(std::string_view host,
                               std::string_view server_ip) const;

  VerdictServiceStats stats() const;

  // The registry the lookup counters land on (the caller-supplied one, or
  // the service-private default). Lets callers — the exporter-consistency
  // test, the serve layer's metrics dump — read
  // verdict.lookups_total / verdict.lookup_ns without guessing which
  // registry this service records into.
  const std::shared_ptr<obs::Registry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  VerdictAnswer answer(const ServerVerdict* verdict,
                       const DetectionSnapshot* snapshot) const;

  const SnapshotSlot& slot_;
  std::chrono::steady_clock::time_point start_;
  // Shared so a caller-supplied registry outlives every handle below even
  // if the caller drops their reference first.
  std::shared_ptr<obs::Registry> metrics_;
  obs::Counter* lookups_;
  obs::Counter* hits_;
  obs::Histogram* lookup_ns_;
};

}  // namespace smash::stream
