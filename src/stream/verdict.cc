#include "stream/verdict.h"

namespace smash::stream {

namespace {

// 1-in-kLookupSampleStride sampling of lookup latency: hot lookups stay
// two relaxed increments; the sampled ones add two steady_clock reads.
// Thread-local so concurrent readers never contend on the sampling state,
// and stride-aligned (every full stride contributes exactly one sample, a
// thread's partial tail stride contributes none) so lookup_ns.count ==
// sum over threads of floor(thread_lookups / stride): never more than
// lookups_total / stride, and short at most one sample per thread.
// StreamObsGates.SampledLookupCountTracksStride (tests/obs_test.cc) relies
// on that bound.
bool sample_lookup() noexcept {
  thread_local std::uint32_t n = 0;
  return ++n % VerdictService::kLookupSampleStride == 0;
}

}  // namespace

VerdictAnswer VerdictService::answer(const ServerVerdict* verdict,
                                     const DetectionSnapshot* snapshot) const {
  lookups_->inc();
  VerdictAnswer out;
  if (snapshot != nullptr) {
    out.snapshot_available = true;
    out.snapshot_sequence = snapshot->sequence();
    out.snapshot_last_epoch = snapshot->last_epoch();
    // Read-time age from the immutable publish timestamp: two lookups a
    // second apart report ages a second apart even if no snapshot has
    // been published in between (a stalled miner must look stale, not
    // fresh).
    out.snapshot_age_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             snapshot->built_at())
                             .count();
  }
  if (verdict != nullptr) {
    out.malicious = true;
    out.verdict = *verdict;
    hits_->inc();
  }
  return out;
}

VerdictAnswer VerdictService::lookup(std::string_view host) const {
  const bool timed = sample_lookup();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const auto snapshot = slot_.acquire();
  VerdictAnswer out = snapshot ? answer(snapshot->find_host(host), snapshot.get())
                               : answer(nullptr, nullptr);
  if (timed) {
    lookup_ns_->observe(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  return out;
}

VerdictAnswer VerdictService::lookup_request(std::string_view host,
                                             std::string_view server_ip) const {
  const bool timed = sample_lookup();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  VerdictAnswer out;
  const auto snapshot = slot_.acquire();
  if (!snapshot) {
    out = answer(nullptr, nullptr);
  } else {
    const ServerVerdict* verdict = snapshot->find_host(host);
    if (verdict == nullptr && !server_ip.empty()) {
      verdict = snapshot->find_ip(server_ip);
    }
    out = answer(verdict, snapshot.get());
  }
  if (timed) {
    lookup_ns_->observe(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  return out;
}

VerdictServiceStats VerdictService::stats() const {
  VerdictServiceStats out;
  out.queries = lookups_->value();
  out.hits = hits_->value();
  out.hit_rate = out.queries == 0
                     ? 0.0
                     : static_cast<double>(out.hits) /
                           static_cast<double>(out.queries);
  const auto now = std::chrono::steady_clock::now();
  const double elapsed_s =
      std::chrono::duration<double>(now - start_).count();
  out.qps = elapsed_s > 0.0 ? static_cast<double>(out.queries) / elapsed_s : 0.0;
  if (const auto snapshot = slot_.acquire()) {
    out.snapshot_available = true;
    out.snapshot_sequence = snapshot->sequence();
    out.snapshot_age_s =
        std::chrono::duration<double>(now - snapshot->built_at()).count();
  }
  return out;
}

}  // namespace smash::stream
