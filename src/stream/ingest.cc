#include "stream/ingest.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace smash::stream {

namespace {
constexpr std::uint64_t kSecondsPerDay = 86400;
}  // namespace

// --- EpochShard --------------------------------------------------------------

EpochShard::EpochShard(EpochId id) : id_(id) { trace_.enable_journal(); }

EpochShard EpochShard::restore_sealed(EpochId id, net::Trace trace) {
  SMASH_CHECK(trace.journal_enabled(),
              "EpochShard::restore_sealed needs a journaled trace");
  EpochShard shard(id);
  shard.trace_ = std::move(trace);
  shard.seal();
  return shard;
}

EpochShard EpochShard::restore_open(EpochId id, net::Trace trace) {
  SMASH_CHECK(trace.journal_enabled(),
              "EpochShard::restore_open needs a journaled trace");
  EpochShard shard(id);
  shard.trace_ = std::move(trace);
  return shard;
}

void EpochShard::add(const RequestEvent& event) {
  net::HttpRequest req;
  req.client = trace_.intern_client(event.client);
  req.server = trace_.intern_server(event.host);
  req.day = static_cast<std::uint32_t>(event.time_s / kSecondsPerDay);
  req.method = event.method;
  req.status = event.status;
  req.path = event.path;
  req.user_agent = event.user_agent;
  req.referrer = event.referrer;
  trace_.add_request(std::move(req));
}

void EpochShard::add(const ResolutionEvent& event) {
  trace_.add_resolution(trace_.intern_server(event.host),
                        trace_.intern_ip(event.ip));
}

void EpochShard::add(const RedirectEvent& event) {
  trace_.add_redirect(trace_.intern_server(event.from),
                      trace_.intern_server(event.to));
}

void EpochShard::seal() {
  if (sealed_) return;
  trace_.finalize();
  // All per-request parsing happens once, here: the cached AggregatedTrace
  // feeds both the window aggregates delta and every future window re-mine.
  pre_ = core::AggregatedTrace::build(trace_);
  sealed_ = true;
}

// --- WindowAggregates --------------------------------------------------------

// An epoch's per-2LD delta is its shard's profiles; a profile without
// requests (resolution/redirect-only or referrer-only 2LD) contributes
// nothing, not even an active epoch.

void WindowAggregates::add_epoch(const EpochShard& shard) {
  const auto& pre = shard.pre();
  for (std::uint32_t s = 0; s < pre.servers().size(); ++s) {
    const auto& delta = pre.profile(s);
    if (delta.requests == 0) continue;
    auto& agg = by_2ld_[pre.server_name(s)];
    agg.requests += delta.requests;
    agg.error_requests += delta.error_requests;
    agg.active_epochs += 1;
    window_requests_ += delta.requests;
  }
}

void WindowAggregates::remove_epoch(const EpochShard& shard) {
  const auto& pre = shard.pre();
  for (std::uint32_t s = 0; s < pre.servers().size(); ++s) {
    const auto& delta = pre.profile(s);
    if (delta.requests == 0) continue;
    auto it = by_2ld_.find(pre.server_name(s));
    // An evicted shard's delta was added when the shard entered the window;
    // a missing entry or a delta exceeding the accumulated value means the
    // aggregates no longer describe the window — underflow here would serve
    // garbage verdict stats silently, so fail loudly instead.
    SMASH_CHECK(it != by_2ld_.end(),
                "WindowAggregates underflow: evicted 2LD absent from window");
    auto& agg = it->second;
    SMASH_CHECK(agg.requests >= delta.requests &&
                    agg.error_requests >= delta.error_requests &&
                    agg.active_epochs >= 1 &&
                    window_requests_ >= delta.requests,
                "WindowAggregates underflow: evicted delta exceeds window");
    agg.requests -= delta.requests;
    agg.error_requests -= delta.error_requests;
    agg.active_epochs -= 1;
    window_requests_ -= delta.requests;
    if (agg.empty()) by_2ld_.erase(it);
  }
}

const ServerWindowStats* WindowAggregates::find(std::string_view host_2ld) const {
  auto it = by_2ld_.find(host_2ld);
  return it == by_2ld_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, ServerWindowStats>>
WindowAggregates::sorted_entries() const {
  std::vector<std::pair<std::string, ServerWindowStats>> entries(by_2ld_.begin(),
                                                                 by_2ld_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

// --- StreamIngestor ----------------------------------------------------------

StreamIngestor::StreamIngestor(StreamConfig config) : config_(std::move(config)) {
  config_.validate();
}

StreamIngestor StreamIngestor::restore(
    StreamConfig config, bool started, EpochId open_epoch, EpochShard open_shard,
    std::deque<std::shared_ptr<const EpochShard>> window, IngestStats stats) {
  StreamIngestor ingestor(std::move(config));
  SMASH_CHECK(window.size() <= ingestor.config_.window_epochs,
              "StreamIngestor::restore: window wider than config");
  ingestor.started_ = started;
  ingestor.open_epoch_ = open_epoch;
  ingestor.open_shard_ = std::move(open_shard);
  ingestor.window_ = std::move(window);
  ingestor.stats_ = stats;
  for (const auto& shard : ingestor.window_) {
    ingestor.aggregates_.add_epoch(*shard);
  }
  return ingestor;
}

IngestResult StreamIngestor::position(std::uint64_t time_s) {
  const EpochId epoch = config_.epoch_of(time_s);
  IngestResult result;
  if (!started_) {
    started_ = true;
    open_epoch_ = epoch;
    open_shard_ = EpochShard(epoch);
    return result;
  }
  if (epoch < open_epoch_) {
    if (config_.drop_late_events) {
      ++stats_.late_dropped;
      result.accepted = false;
    } else {
      ++stats_.late_folded;
    }
    return result;
  }
  if (epoch > open_epoch_) result.epochs_closed = advance_to(epoch);
  return result;
}

IngestResult StreamIngestor::ingest(const RequestEvent& event) {
  IngestResult result = position(event.time_s);
  if (!result.accepted) return result;
  open_shard_.add(event);
  ++stats_.requests;
  return result;
}

IngestResult StreamIngestor::ingest(const ResolutionEvent& event) {
  IngestResult result = position(event.time_s);
  if (!result.accepted) return result;
  open_shard_.add(event);
  ++stats_.resolutions;
  return result;
}

IngestResult StreamIngestor::ingest(const RedirectEvent& event) {
  IngestResult result = position(event.time_s);
  if (!result.accepted) return result;
  open_shard_.add(event);
  ++stats_.redirects;
  return result;
}

void StreamIngestor::close_epoch() {
  if (!started_) return;
  // Covers the seal (finalize + AggregatedTrace build) and the
  // window/aggregates rotation — the ingest-side half of an epoch close on
  // the trace timeline; the mining half is stream.assemble/stream.mine.
  SMASH_SPAN("stream.epoch_seal");
  open_shard_.seal();
  window_.push_back(
      std::make_shared<const EpochShard>(std::move(open_shard_)));
  aggregates_.add_epoch(*window_.back());
  if (window_.size() > config_.window_epochs) {
    aggregates_.remove_epoch(*window_.front());
    window_.pop_front();
  }
  ++open_epoch_;
  open_shard_ = EpochShard(open_epoch_);
}

std::uint32_t StreamIngestor::advance_to(EpochId epoch) {
  // A gap wider than the window would close epoch after empty epoch only to
  // evict them all again — with a corrupt far-future timestamp that loop is
  // effectively unbounded. Jump straight to the equivalent end state: the
  // open shard sealed-and-evicted, a ring of empty epochs, no aggregates.
  const EpochId gap = epoch - open_epoch_;
  if (gap > config_.window_epochs) {
    window_.clear();
    aggregates_ = WindowAggregates();
    for (EpochId e = epoch - config_.window_epochs; e < epoch; ++e) {
      EpochShard empty(e);
      empty.seal();
      window_.push_back(std::make_shared<const EpochShard>(std::move(empty)));
    }
    open_epoch_ = epoch;
    open_shard_ = EpochShard(epoch);
    return static_cast<std::uint32_t>(
        std::min<EpochId>(gap, std::numeric_limits<std::uint32_t>::max()));
  }
  std::uint32_t closed = 0;
  while (open_epoch_ < epoch) {
    close_epoch();
    ++closed;
  }
  return closed;
}

net::Trace StreamIngestor::assemble_window() const {
  net::Trace out;
  for (const auto& shard : window_) out.merge_from(shard->trace());
  out.finalize();
  return out;
}

}  // namespace smash::stream
