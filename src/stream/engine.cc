#include "stream/engine.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/preshard.h"
#include "durability/file.h"
#include "durability/journal.h"
#include "durability/recover.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace smash::stream {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

durability::FsyncPolicy fsync_policy_of(const StreamConfig& config) {
  // WalFsync mirrors durability::FsyncPolicy value-for-value so
  // stream_config.h can stay a leaf header.
  return static_cast<durability::FsyncPolicy>(config.fsync_policy);
}

}  // namespace

std::shared_ptr<obs::Registry> StreamEngine::init_metrics() {
  if (!config_.metrics_enabled) {
    config_.smash.metrics = nullptr;
    return nullptr;
  }
  auto reg = config_.metrics ? config_.metrics
                             : std::make_shared<obs::Registry>();
  config_.smash.metrics = reg.get();
  return reg;
}

void StreamEngine::bind_metrics() {
  if (!metrics_registry_) return;
  auto& r = *metrics_registry_;
  metrics_.events = &r.counter("stream.events_total", "events ingested");
  metrics_.epoch_closes =
      &r.counter("stream.epoch_closes_total", "epochs closed");
  metrics_.windows_coalesced =
      &r.counter("stream.windows_coalesced_total",
                 "pending mining jobs replaced by a newer window");
  metrics_.snapshots = &r.counter("stream.snapshots_published_total",
                                  "detection snapshots published");
  metrics_.close_to_publish_ms = &r.latency_histogram_ms(
      "stream.close_to_publish_ms", "epoch close to snapshot visible");
  metrics_.assemble_ms = &r.latency_histogram_ms(
      "stream.assemble_ms", "window assembly (preshard merge)");
  metrics_.mine_ms =
      &r.latency_histogram_ms("stream.mine_ms", "SmashPipeline window re-mine");
  metrics_.snapshot_build_ms = &r.latency_histogram_ms(
      "stream.snapshot_build_ms", "DetectionSnapshot build and publish");
  metrics_.mine_queue_wait_ms = &r.latency_histogram_ms(
      "stream.mine_queue_wait_ms", "epoch close to mine start");
  metrics_.mine_queue_depth =
      &r.gauge("stream.mine_queue_depth", "mining jobs in flight or pending");
  r.gauge_callback(
      "stream.snapshot_age_ms",
      [this] {
        const auto last = last_publish_ns_.load(std::memory_order_relaxed);
        if (last < 0) return -1.0;
        const auto now = std::chrono::steady_clock::now().time_since_epoch();
        const auto now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
        return static_cast<double>(now_ns - last) / 1e6;
      },
      "ms since the last snapshot publish (-1 before the first)");
  if (!config_.metrics_dir.empty()) {
    metrics_logger_ = std::make_unique<obs::MetricsLogger>(
        metrics_registry_, config_.metrics_dir + "/metrics.jsonl",
        std::chrono::milliseconds(config_.metrics_interval_ms));
  }
}

StreamEngine::StreamEngine(StreamConfig config, const whois::Registry& registry)
    : config_(std::move(config)), registry_(registry),
      metrics_registry_(init_metrics()), pipeline_(config_.smash),
      ingestor_(config_) {
  bind_metrics();
  if (!config_.durability_dir.empty()) {
    SMASH_CHECK(!durability::DurableJournal::dir_has_state(config_.durability_dir),
                "StreamEngine: durability_dir already holds WAL/checkpoint "
                "state; use StreamEngine::recover()");
    journal_ = std::make_unique<durability::DurableJournal>(
        config_.durability_dir, fsync_policy_of(config_));
    journal_->set_metrics(metrics_registry_.get());
  }
}

StreamEngine::StreamEngine(RecoveredTag, StreamConfig config,
                           const whois::Registry& registry, StreamIngestor ingestor,
                           std::unique_ptr<durability::DurableJournal> journal,
                           std::uint64_t closes_total, RecoveryStats recovery_stats)
    : config_(std::move(config)), registry_(registry),
      metrics_registry_(init_metrics()), pipeline_(config_.smash),
      ingestor_(std::move(ingestor)), journal_(std::move(journal)),
      recovery_stats_(recovery_stats), closes_total_(closes_total) {
  bind_metrics();
  if (journal_) journal_->set_metrics(metrics_registry_.get());
}

StreamEngine::~StreamEngine() {
  // The drain can rethrow a mining failure; a destructor must not.
  try {
    wait_for_mining();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "StreamEngine: mine failed at teardown: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "StreamEngine: mine failed at teardown\n");
  }
  // Final metrics line, then detach the snapshot-age provider before the
  // members it reads die (the registry may be shared and outlive us).
  metrics_logger_.reset();
  if (metrics_registry_) metrics_registry_->remove("stream.snapshot_age_ms");
}

void StreamEngine::ingest(const RequestEvent& event) {
  // Per-event spans would flood the trace ring (and cost two clock reads
  // per event), so the ingest span is 1/1024-sampled; the events counter
  // still counts every event.
  obs::Span span(++ingest_sample_ % 1024 == 1 ? "stream.ingest" : nullptr);
  if (metrics_.events != nullptr) metrics_.events->inc();
  durable_prepare(event.time_s);
  if (journal_) journal_->append(event);
  on_epochs_closed(ingestor_.ingest(event).epochs_closed);
}

void StreamEngine::ingest(const ResolutionEvent& event) {
  obs::Span span(++ingest_sample_ % 1024 == 1 ? "stream.ingest" : nullptr);
  if (metrics_.events != nullptr) metrics_.events->inc();
  durable_prepare(event.time_s);
  if (journal_) journal_->append(event);
  on_epochs_closed(ingestor_.ingest(event).epochs_closed);
}

void StreamEngine::ingest(const RedirectEvent& event) {
  obs::Span span(++ingest_sample_ % 1024 == 1 ? "stream.ingest" : nullptr);
  if (metrics_.events != nullptr) metrics_.events->inc();
  durable_prepare(event.time_s);
  if (journal_) journal_->append(event);
  on_epochs_closed(ingestor_.ingest(event).epochs_closed);
}

void StreamEngine::durable_prepare(std::uint64_t time_s) {
  if (!journal_ || !ingestor_.has_open_epoch()) return;
  if (config_.epoch_of(time_s) > ingestor_.open_epoch()) {
    // One marker per segment regardless of how many epochs the event will
    // close: replay applies this seal, and the event's own ingest advances
    // through the remaining gap deterministically.
    journal_->seal_epoch(ingestor_.open_epoch());
  }
}

void StreamEngine::finish() {
  if (ingestor_.has_open_epoch()) {
    if (journal_) journal_->seal_epoch(ingestor_.open_epoch());
    ingestor_.close_epoch();
    on_epochs_closed(1);
  }
  wait_for_mining();
}

void StreamEngine::wait_for_mining() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mine_mutex_);
    mine_cv_.wait(lock, [this] { return !mine_in_flight_ && !pending_; });
    error = std::exchange(mine_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void StreamEngine::on_epochs_closed(std::uint32_t closed) {
  if (closed == 0) return;
  if (metrics_.epoch_closes != nullptr) metrics_.epoch_closes->inc(closed);
  closes_total_ += closed;
  maybe_checkpoint(closed);
  if (ingestor_.window().empty()) return;
  submit_or_coalesce();
  if (!config_.async_mining) wait_for_mining();
}

void StreamEngine::maybe_checkpoint(std::uint32_t closed) {
  if (!journal_) return;
  closes_since_checkpoint_ += closed;
  if (closes_since_checkpoint_ < config_.checkpoint_every_epochs) return;
  journal_->write_checkpoint(build_checkpoint());
  closes_since_checkpoint_ = 0;
}

durability::CheckpointState StreamEngine::build_checkpoint() const {
  durability::CheckpointState state;
  state.epoch_seconds = config_.epoch_seconds;
  state.window_epochs = config_.window_epochs;
  state.drop_late_events = config_.drop_late_events;
  state.closes_total = closes_total_;
  state.started = ingestor_.has_open_epoch();
  state.open_epoch = ingestor_.open_epoch();
  state.ingest_stats = ingestor_.stats();
  state.window.reserve(ingestor_.window().size());
  for (const auto& shard : ingestor_.window()) {
    durability::CheckpointShard out;
    out.epoch = shard->id();
    out.pre_fingerprint = core::shard_pre_fingerprint(shard->pre());
    shard->trace().serialize_events(out.trace_bytes);
    state.window.push_back(std::move(out));
  }
  // The event that closed the newest epoch is already in the open shard
  // (and past the replay position the journal will record), so the open
  // shard's journaled trace is part of the checkpointed state.
  ingestor_.open_shard().trace().serialize_events(state.open_trace_bytes);
  state.window_requests = ingestor_.aggregates().window_requests();
  for (auto& [host, stats] : ingestor_.aggregates().sorted_entries()) {
    state.aggregates.push_back(
        {host, stats.requests, stats.error_requests, stats.active_epochs});
  }
  return state;
}

void StreamEngine::submit_or_coalesce() {
  MiningJob job;
  job.shards.assign(ingestor_.window().begin(), ingestor_.window().end());
  job.ingest_stats = ingestor_.stats();
  job.closes_upto = closes_total_;
  job.closed_at = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mine_mutex_);
    if (mine_in_flight_) {
      // Skip-to-newest: replace any job still waiting — the miner only ever
      // sees the latest window, and sequence accounting records the skip.
      if (pending_) {
        windows_coalesced_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_.windows_coalesced != nullptr) {
          metrics_.windows_coalesced->inc();
        }
      }
      pending_ = std::move(job);
      if (metrics_.mine_queue_depth != nullptr) metrics_.mine_queue_depth->set(2.0);
      return;
    }
    mine_in_flight_ = true;
    if (metrics_.mine_queue_depth != nullptr) metrics_.mine_queue_depth->set(1.0);
  }
  miner_.submit(
      [this, job = std::move(job)]() mutable { mining_loop(std::move(job)); });
}

void StreamEngine::mining_loop(MiningJob job) {
  for (;;) {
    try {
      mine_and_publish(job);
    } catch (...) {
      // A wedged engine would deadlock finish()/~StreamEngine; park the
      // error for the writer thread (wait_for_mining rethrows) and leave
      // the engine drainable — the next close simply mines a newer window.
      const std::lock_guard<std::mutex> lock(mine_mutex_);
      mine_error_ = std::current_exception();
      pending_.reset();
      mine_in_flight_ = false;
      if (metrics_.mine_queue_depth != nullptr) metrics_.mine_queue_depth->set(0.0);
      mine_cv_.notify_all();
      return;
    }
    std::unique_lock<std::mutex> lock(mine_mutex_);
    if (pending_) {
      job = std::move(*pending_);
      pending_.reset();
      if (metrics_.mine_queue_depth != nullptr) metrics_.mine_queue_depth->set(1.0);
      continue;
    }
    mine_in_flight_ = false;
    if (metrics_.mine_queue_depth != nullptr) metrics_.mine_queue_depth->set(0.0);
    mine_cv_.notify_all();
    return;
  }
}

void StreamEngine::mine_and_publish(const MiningJob& job) {
  const auto& shards = job.shards;
  EpochCloseRecord record;
  record.last_epoch = shards.back()->id();
  record.window_epochs = static_cast<std::uint32_t>(shards.size());
  // Time from epoch close to mine start: the hand-off to the mining
  // thread, plus any wait behind an in-flight mine.
  if (metrics_.mine_queue_wait_ms != nullptr) {
    metrics_.mine_queue_wait_ms->observe(ms_since(job.closed_at));
  }

  // Per-2LD stats rebuilt from the captured immutable shards, so the
  // mining thread never touches mutable ingest state.
  WindowAggregates aggregates;
  for (const auto& shard : shards) aggregates.add_epoch(*shard);

  const auto prepare_start = std::chrono::steady_clock::now();
  obs::Span assemble_span("stream.assemble");
  std::vector<core::ShardPreRef> refs;
  refs.reserve(shards.size());
  for (const auto& shard : shards) {
    refs.push_back({&shard->trace(), &shard->pre()});
  }
  auto window_pre = core::merge_shard_pres(refs, config_.smash);
  assemble_span.finish();
  record.assemble_ms = ms_since(prepare_start);
  record.window_requests = window_pre.pre.total_requests;

  const auto mine_start = std::chrono::steady_clock::now();
  core::SmashResult result;
  {
    SMASH_SPAN("stream.mine");
    result = pipeline_.run_preprocessed(std::move(window_pre.pre), registry_);
  }
  record.mine_ms = ms_since(mine_start);

  if (config_.mine_throttle_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.mine_throttle_ms));
  }
  if (config_.mine_test_hook) config_.mine_test_hook();

  const auto snapshot_start = std::chrono::steady_clock::now();
  obs::Span publish_span("stream.publish");
  auto snapshot = DetectionSnapshot::build(
      result, window_pre.ips, record.window_requests, aggregates,
      job.ingest_stats, shards.front()->id(), shards.back()->id(),
      job.closes_upto, recovery_stats_, config_.snapshot_test_hook);
  record.kept_servers = snapshot->kept_servers();
  record.campaigns = snapshot->campaigns().size();
  record.malicious_servers = snapshot->num_malicious_servers();
  record.postings_budget_exceeded = snapshot->postings_budget_exceeded();
  slot_.publish(std::move(snapshot));
  publish_span.finish();
  record.snapshot_ms = ms_since(snapshot_start);
  record.total_ms = ms_since(job.closed_at);
  last_publish_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  if (metrics_.snapshots != nullptr) {
    metrics_.snapshots->inc();
    metrics_.assemble_ms->observe(record.assemble_ms);
    metrics_.mine_ms->observe(record.mine_ms);
    metrics_.snapshot_build_ms->observe(record.snapshot_ms);
    metrics_.close_to_publish_ms->observe(record.total_ms);
  }

  {
    const std::lock_guard<std::mutex> lock(records_mutex_);
    record.epochs_closed = job.closes_upto - published_closes_;
    published_closes_ = job.closes_upto;
    close_records_.push_back(record);
  }
  // Advance the counter only after the record is in close_records_, so a
  // reader that polls snapshots_published() and then reads the records
  // always finds one per publication it observed.
  snapshots_published_.fetch_add(1, std::memory_order_release);
}

std::vector<EpochCloseRecord> StreamEngine::close_records() const {
  const std::lock_guard<std::mutex> lock(records_mutex_);
  return close_records_;
}

std::unique_ptr<StreamEngine> StreamEngine::recover(
    StreamConfig config, const whois::Registry& registry) {
  config.validate();
  SMASH_CHECK(!config.durability_dir.empty(),
              "StreamEngine::recover needs durability_dir");
  const auto start = std::chrono::steady_clock::now();
  const std::string& dir = config.durability_dir;

  // Exclusive lock for the whole recovery (and then, handed to the
  // resumed journal, for the engine's lifetime): a second recover() or a
  // live journal on the same dir fails here instead of interleaving.
  durability::File::make_dirs(dir);
  auto dir_lock = durability::DirLock::acquire(dir);

  RecoveryStats rstats;
  rstats.recovered = true;
  auto ckpt = durability::load_latest_checkpoint(dir, &rstats.checkpoints_skipped);

  std::uint64_t closes_total = 0;
  std::uint64_t records_logged = 0;
  durability::WalPosition replay_from;  // defaults to segment 1, offset 0
  std::optional<StreamIngestor> ingestor;
  if (ckpt) {
    if (ckpt->epoch_seconds != config.epoch_seconds ||
        ckpt->window_epochs != config.window_epochs ||
        ckpt->drop_late_events != config.drop_late_events) {
      throw durability::RecoveryError(
          "checkpoint was taken under a different stream configuration "
          "(epoch geometry or late-event policy)");
    }
    const auto deserialize = [](const std::string& bytes) {
      try {
        return net::Trace::deserialize_events(bytes);
      } catch (const std::exception& e) {
        // The blob passed its CRC, so this is a writer bug, not bit rot.
        throw durability::RecoveryError(
            std::string("checkpointed trace does not decode: ") + e.what());
      }
    };
    std::deque<std::shared_ptr<const EpochShard>> window;
    for (const auto& shard : ckpt->window) {
      auto restored =
          EpochShard::restore_sealed(shard.epoch, deserialize(shard.trace_bytes));
      // The shard's AggregatedTrace is rebuilt, not deserialized; the
      // fingerprint proves the rebuild matches what the pre-crash engine
      // was mining.
      if (core::shard_pre_fingerprint(restored.pre()) != shard.pre_fingerprint) {
        throw durability::RecoveryError(
            "rebuilt shard preprocess cache diverges from checkpoint "
            "fingerprint");
      }
      window.push_back(
          std::make_shared<const EpochShard>(std::move(restored)));
    }
    ingestor = StreamIngestor::restore(
        config, ckpt->started, ckpt->open_epoch,
        EpochShard::restore_open(ckpt->open_epoch,
                                 deserialize(ckpt->open_trace_bytes)),
        std::move(window), ckpt->ingest_stats);

    // The aggregates were rebuilt from the restored shards; the checkpoint
    // carries the original listing as a cross-check.
    const auto rebuilt = ingestor->aggregates().sorted_entries();
    bool aggregates_match =
        rebuilt.size() == ckpt->aggregates.size() &&
        ingestor->aggregates().window_requests() == ckpt->window_requests;
    for (std::size_t i = 0; aggregates_match && i < rebuilt.size(); ++i) {
      const auto& [host, stats] = rebuilt[i];
      const auto& expected = ckpt->aggregates[i];
      aggregates_match = host == expected.host_2ld &&
                         stats.requests == expected.requests &&
                         stats.error_requests == expected.error_requests &&
                         stats.active_epochs == expected.active_epochs;
    }
    if (!aggregates_match) {
      throw durability::RecoveryError(
          "rebuilt window aggregates diverge from checkpoint");
    }

    rstats.used_checkpoint = true;
    rstats.checkpoint_closes = ckpt->closes_total;
    closes_total = ckpt->closes_total;
    records_logged = ckpt->records_logged;
    replay_from = {ckpt->replay_segment, ckpt->replay_offset};
  } else {
    ingestor.emplace(config);
  }

  const auto replay = durability::replay_wal(
      dir, replay_from.segment, replay_from.offset,
      [&](const durability::WalRecord& record) {
        std::visit(
            [&](const auto& r) {
              using T = std::decay_t<decltype(r)>;
              if constexpr (std::is_same_v<T, durability::SealMarker>) {
                // Seal markers are idempotent against the event-driven
                // closes the following event replays: apply only when the
                // named epoch is still the open one.
                if (ingestor->has_open_epoch() && ingestor->open_epoch() == r.epoch) {
                  ingestor->close_epoch();
                  ++closes_total;
                }
              } else {
                closes_total += ingestor->ingest(r).epochs_closed;
              }
            },
            record);
      },
      fsync_policy_of(config));
  rstats.segments_scanned = replay.segments_scanned;
  rstats.records_replayed = replay.records_replayed;
  rstats.events_replayed = replay.events_replayed;
  rstats.bytes_replayed = replay.bytes_replayed;
  rstats.bytes_truncated = replay.bytes_truncated;

  auto journal = std::make_unique<durability::DurableJournal>(
      dir, fsync_policy_of(config),
      durability::WalPosition{replay.next_segment, replay.next_offset},
      records_logged + replay.records_replayed, std::move(dir_lock));

  rstats.checkpoint_on_recovery = replay.records_replayed > 0;
  rstats.recovery_ms = ms_since(start);
  auto engine = std::unique_ptr<StreamEngine>(
      new StreamEngine(RecoveredTag{}, std::move(config), registry,
                       std::move(*ingestor), std::move(journal), closes_total,
                       rstats));
  // A replayed tail is checkpointed right away: without this a
  // crash-looping process never advances its replay position (the counter
  // restarts at zero every recovery) and re-replays an ever-growing tail.
  // Checkpoint timing is invisible to snapshots, so the differential
  // guarantee is untouched.
  if (rstats.checkpoint_on_recovery) {
    engine->journal_->write_checkpoint(engine->build_checkpoint());
  }
  // Republish the recovered window so readers see verdicts immediately;
  // subsequent closes then publish exactly as the uninterrupted engine
  // would have. Drained here even in async mode — recovery is not on the
  // ingest hot path.
  if (!engine->ingestor_.window().empty()) {
    engine->submit_or_coalesce();
    engine->wait_for_mining();
  }
  return engine;
}

}  // namespace smash::stream
