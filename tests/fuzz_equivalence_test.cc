// Seeded randomized end-to-end differential fuzzer (docs/TESTING.md):
//
//  - random traces through SmashPipeline at threads {1, 4} x join budgets
//    {unbounded, tiny} must produce identical SmashResults — every
//    execution strategy (probe-parallel joins, key-range-sharded joins,
//    concurrent dimension fan-out with the weighted budget split) is a
//    pure wall-clock/memory trade;
//  - random event schedules (late events, multi-epoch gaps) through sync
//    vs async StreamEngines must publish byte-identical final snapshots
//    with every epoch close accounted;
//  - randomized scenario-library streams: every publication of the engine
//    must be byte-identical to a batch mine of its assembled window.
//
// Runs fuzz_seeds() seeds (default 20): SMASH_FUZZ_ITERS scales the seed
// count (the nightly long-fuzz job uses 500), SMASH_FUZZ_SEED pins a
// single failing seed for reproduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "durability/checkpoint.h"
#include "durability/file.h"
#include "durability/recover.h"
#include "durability/wal.h"
#include "stream/engine.h"
#include "stream_fuzz_helpers.h"
#include "synth/scenarios.h"
#include "synth/stream_gen.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "whois/whois.h"

namespace smash {
namespace {

using test::add_request;
using test::expect_identical_snapshots;
using test::fuzz_seeds;
using test::random_matrix_scenario;
using test::random_schedule;
using test::resolve;
using test::schedule_config;

// --- random batch traces -----------------------------------------------------

struct FuzzTrace {
  net::Trace trace;
  whois::Registry registry;
};

// Random trace with campaign-shaped structure (shared clients, payloads,
// IPs, sometimes whois records) over benign noise, so every dimension and
// the correlation/pruning tail see real work. Deterministic from the seed.
FuzzTrace random_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  FuzzTrace out;
  net::Trace& trace = out.trace;

  const std::uint32_t campaigns = 1 + static_cast<std::uint32_t>(rng.uniform(3));
  for (std::uint32_t c = 0; c < campaigns; ++c) {
    const std::uint32_t servers = 2 + static_cast<std::uint32_t>(rng.uniform(4));
    const std::uint32_t bots = 2 + static_cast<std::uint32_t>(rng.uniform(4));
    const bool shared_whois = rng.bernoulli(0.5);
    const bool shared_params = rng.bernoulli(0.3);
    whois::Record record;
    record.registrant = "actor" + std::to_string(c);
    record.email = "actor" + std::to_string(c) + "@mail.test";

    const std::string payload = "/payload" + std::to_string(c) + ".exe";
    for (std::uint32_t s = 0; s < servers; ++s) {
      const std::string host =
          "c" + std::to_string(c) + "s" + std::to_string(s) + ".test";
      for (std::uint32_t b = 0; b < bots; ++b) {
        const std::string client =
            "bot" + std::to_string(c) + "_" + std::to_string(b);
        std::string path = payload;
        if (shared_params) {
          path += "?id=" + std::to_string(rng.uniform(100)) + "&e=1";
        }
        add_request(trace, client, host, path);
        if (rng.bernoulli(0.4)) {
          add_request(trace, client, host,
                      "/extra" + std::to_string(rng.uniform(4)) + ".bin");
        }
      }
      // One or two IPs from a small per-campaign pool, so the IP-set
      // dimension finds shared infrastructure.
      resolve(trace, host,
              "10." + std::to_string(c) + ".0." + std::to_string(rng.uniform(3)));
      if (rng.bernoulli(0.5)) {
        resolve(trace, host,
                "10." + std::to_string(c) + ".0." + std::to_string(rng.uniform(3)));
      }
      if (shared_whois) out.registry.add(host, record);
    }
  }

  // Benign background: light random browsing.
  const std::uint32_t benign = 20 + static_cast<std::uint32_t>(rng.uniform(30));
  for (std::uint32_t s = 0; s < benign; ++s) {
    const std::string host = "site" + std::to_string(s) + ".org";
    const std::uint64_t visits = 1 + rng.uniform(5);
    for (std::uint64_t v = 0; v < visits; ++v) {
      add_request(trace, "user" + std::to_string(rng.uniform(40)), host,
                  "/page" + std::to_string(rng.uniform(8)) + ".html");
    }
    resolve(trace, host,
            "192.168." + std::to_string(s % 16) + "." + std::to_string(s));
  }

  // Sometimes a popular head server that trips the IDF filter.
  if (rng.bernoulli(0.5)) {
    for (std::uint32_t cl = 0; cl < 70; ++cl) {
      add_request(trace, "crowd" + std::to_string(cl), "portal.example",
                  "/index.html");
    }
    resolve(trace, "portal.example", "203.0.113.1");
  }

  trace.finalize();
  return out;
}

void expect_identical_results(const core::SmashResult& a,
                              const core::SmashResult& b,
                              const std::string& context) {
  ASSERT_EQ(a.pre.kept, b.pre.kept) << context;
  ASSERT_EQ(a.dims.size(), b.dims.size()) << context;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    const auto& da = a.dims[d];
    const auto& db = b.dims[d];
    EXPECT_EQ(da.dimension, db.dimension) << context;
    EXPECT_EQ(da.ash_of, db.ash_of) << context << " dim=" << d;
    EXPECT_EQ(da.graph_edges, db.graph_edges) << context << " dim=" << d;
    EXPECT_EQ(da.modularity, db.modularity) << context << " dim=" << d;
    ASSERT_EQ(da.ashes.size(), db.ashes.size()) << context << " dim=" << d;
    for (std::size_t i = 0; i < da.ashes.size(); ++i) {
      EXPECT_EQ(da.ashes[i].members, db.ashes[i].members)
          << context << " dim=" << d << " ash=" << i;
      EXPECT_EQ(da.ashes[i].density, db.ashes[i].density)
          << context << " dim=" << d << " ash=" << i;
    }
    // The postings-cap counters are execution-invariant; only the
    // memory-shape counters (shard_passes / peak bytes) may differ.
    EXPECT_EQ(da.join_stats.skipped_keys, db.join_stats.skipped_keys)
        << context << " dim=" << d;
    EXPECT_EQ(da.join_stats.emitted_pairs, db.join_stats.emitted_pairs)
        << context << " dim=" << d;
    // Louvain trajectory counters are shared by every execution shape.
    EXPECT_EQ(da.louvain_stats.sweeps, db.louvain_stats.sweeps)
        << context << " dim=" << d;
    EXPECT_EQ(da.louvain_stats.moves, db.louvain_stats.moves)
        << context << " dim=" << d;
  }
  EXPECT_EQ(a.correlation.score, b.correlation.score) << context;
  EXPECT_EQ(a.correlation.groups, b.correlation.groups) << context;
  EXPECT_EQ(a.pruned.groups, b.pruned.groups) << context;
  ASSERT_EQ(a.campaigns.size(), b.campaigns.size()) << context;
  for (std::size_t c = 0; c < a.campaigns.size(); ++c) {
    EXPECT_EQ(a.campaigns[c].servers, b.campaigns[c].servers)
        << context << " campaign=" << c;
    EXPECT_EQ(a.campaigns[c].involved_clients, b.campaigns[c].involved_clients)
        << context << " campaign=" << c;
  }
}

core::SmashConfig fuzz_config(std::uint64_t seed, unsigned threads,
                              std::size_t budget) {
  core::SmashConfig config;
  config.idf_threshold = 50;
  config.enable_param_dimension = seed % 2 == 1;
  config.num_threads = threads;
  config.join_memory_budget_bytes = budget;
  return config;
}

TEST(FuzzParallelPipeline, RandomTracesThreadsAndBudgetsMatch) {
  constexpr std::size_t kTinyBudget = 2048;  // forces multi-pass sharded joins
  std::size_t campaigns_found = 0;
  for (const auto seed : fuzz_seeds(20)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const FuzzTrace input = random_trace(seed);

    const core::SmashPipeline reference(fuzz_config(seed, 1, 0));
    const auto expected = reference.run(input.trace, input.registry);
    campaigns_found += expected.campaigns.size();

    for (const unsigned threads : {1u, 4u}) {
      for (const std::size_t budget : {std::size_t{0}, kTinyBudget}) {
        if (threads == 1 && budget == 0) continue;  // the reference itself
        const core::SmashPipeline pipeline(fuzz_config(seed, threads, budget));
        const auto result = pipeline.run(input.trace, input.registry);
        expect_identical_results(expected, result,
                                 "threads=" + std::to_string(threads) +
                                     " budget=" + std::to_string(budget));
      }
    }
  }
  // The harness must exercise real detections, not vacuously-empty runs
  // (over the full sweep; a single pinned seed may legitimately be quiet).
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(campaigns_found, 0u);
  }
}

TEST(FuzzParallelPipeline, ReferenceRunIsDeterministic) {
  for (const auto seed : fuzz_seeds(5)) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FuzzTrace a = random_trace(seed);
    const FuzzTrace b = random_trace(seed);
    ASSERT_EQ(a.trace.num_requests(), b.trace.num_requests());
    const core::SmashPipeline pipeline(fuzz_config(seed, 1, 0));
    expect_identical_results(pipeline.run(a.trace, a.registry),
                             pipeline.run(b.trace, b.registry), "rebuild");
  }
}

// --- random event schedules through the streaming engine ---------------------
//
// random_schedule / schedule_config / expect_identical_snapshots live in
// tests/stream_fuzz_helpers.h, shared with the crash-recovery matrix.

TEST(FuzzStreamEquivalence, RandomSchedulesSyncVsAsync) {
  std::size_t snapshots_with_verdicts = 0;
  for (const auto seed : fuzz_seeds(20)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const auto events = random_schedule(seed);
    const whois::Registry registry;

    stream::StreamEngine sync_engine(schedule_config(seed, /*async=*/false),
                                     registry);
    for (const auto& event : events) synth::ingest_event(sync_engine, event);
    sync_engine.finish();

    stream::StreamEngine async_engine(schedule_config(seed, /*async=*/true),
                                      registry);
    for (const auto& event : events) synth::ingest_event(async_engine, event);
    async_engine.finish();

    EXPECT_EQ(sync_engine.epochs_closed_total(),
              async_engine.epochs_closed_total());
    const auto sync_snapshot = sync_engine.snapshot();
    const auto async_snapshot = async_engine.snapshot();
    ASSERT_NE(sync_snapshot, nullptr);
    ASSERT_NE(async_snapshot, nullptr);
    expect_identical_snapshots(*sync_snapshot, *async_snapshot);
    if (sync_snapshot->num_malicious_servers() > 0) ++snapshots_with_verdicts;

    // Every close is accounted, coalesced or not.
    std::uint64_t accounted = 0;
    for (const auto& record : async_engine.close_records()) {
      accounted += record.epochs_closed;
    }
    EXPECT_EQ(accounted, async_engine.epochs_closed_total());
    EXPECT_LE(async_engine.snapshots_published(),
              async_engine.epochs_closed_total());
  }
  // The schedules must produce real verdicts for the comparison to bite
  // (over the full sweep; a single pinned seed may legitimately be quiet).
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(snapshots_with_verdicts, 0u);
  }
}

TEST(FuzzStreamEquivalence, FinalSyncSnapshotMatchesBatchMineOfWindow) {
  // The sync engine's last snapshot must be what a batch run over the
  // assembled window would publish — the streaming/batch contract, held
  // under randomized late events and epoch gaps.
  std::uint64_t late_events_seen = 0;
  std::uint64_t gaps_seen = 0;
  for (const auto seed : fuzz_seeds(10)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const auto events = random_schedule(seed);
    const whois::Registry registry;

    const auto config = schedule_config(seed, /*async=*/false);
    stream::StreamEngine engine(config, registry);
    for (const auto& event : events) synth::ingest_event(engine, event);
    engine.finish();

    const auto snapshot = engine.snapshot();
    ASSERT_NE(snapshot, nullptr);
    late_events_seen += snapshot->late_dropped() + snapshot->late_folded();
    for (const auto& record : engine.close_records()) {
      if (record.epochs_closed > 1) ++gaps_seen;
    }

    const net::Trace window = engine.assemble_window();
    const core::SmashPipeline pipeline(config.smash);
    const auto batch = pipeline.run(window, registry);
    ASSERT_EQ(snapshot->campaigns().size(), batch.campaigns.size());
    for (std::size_t c = 0; c < batch.campaigns.size(); ++c) {
      const auto& mined = batch.campaigns[c];
      const auto& served = snapshot->campaigns()[c];
      ASSERT_EQ(served.servers.size(), mined.servers.size());
      for (std::size_t s = 0; s < mined.servers.size(); ++s) {
        EXPECT_EQ(served.servers[s], batch.server_name(mined.servers[s]));
      }
      EXPECT_EQ(served.involved_clients, mined.involved_clients.size());
    }
  }
  // The schedule generator must actually exercise the paths under test
  // (over the full sweep; a single pinned seed may legitimately be quiet).
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(late_events_seen, 0u);
    EXPECT_GT(gaps_seen, 0u);
  }
}

// --- randomized scenario-matrix configs --------------------------------------
//
// The scenario library (src/synth/scenarios.h) composes shapes the plain
// random schedule never produces: shared cloud pools tying campaigns to
// benign tenants, flash crowds, DGA bursts, diurnal load, jittered
// long-cadence polling. Randomizing the builder's specs per seed and
// checking every publication of the engine (cached per-epoch
// preprocessing, core/preshard.h) against a batch oracle — SmashPipeline::run
// over the assembled window — extends the byte-identical-snapshot
// contract to those shapes (the scenarios come from
// test::random_matrix_scenario). Picked up by the nightly 500-seed sweep
// via the *Fuzz* filter.

stream::StreamConfig scenario_stream_config(std::uint64_t seed) {
  stream::StreamConfig config;
  config.epoch_seconds = test::kFuzzEpochSeconds;
  config.window_epochs = 3 + static_cast<std::uint32_t>(seed % 3);
  config.smash.idf_threshold = 60;
  config.smash.num_threads = seed % 3 == 0 ? 4 : 1;
  return config;
}

// The batch oracle of a sync engine's current publication: the assembled
// window re-preprocessed and mined by SmashPipeline::run, wrapped with the
// engine's own aggregates, ingest counters, window bounds and close count.
std::shared_ptr<const stream::DetectionSnapshot> batch_oracle(
    const stream::StreamEngine& engine, const whois::Registry& registry) {
  const auto window = engine.assemble_window();
  const auto result = core::SmashPipeline(engine.config().smash).run(window, registry);
  const auto& shards = engine.ingestor().window();
  return stream::DetectionSnapshot::build(
      result, window.ips(), window.num_requests(), engine.ingestor().aggregates(),
      engine.ingestor().stats(), shards.front()->id(), shards.back()->id(),
      engine.epochs_closed_total());
}

TEST(FuzzScenarioStream, RandomScenarioConfigsPreshardMatchesAssembled) {
  std::size_t snapshots_with_verdicts = 0;
  for (const auto seed : fuzz_seeds(8)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const auto scenario = random_matrix_scenario(seed);
    stream::StreamEngine engine(scenario_stream_config(seed), scenario.whois);
    std::uint64_t seen = 0;
    const auto compare_published = [&] {
      if (engine.snapshots_published() == seen) return;
      seen = engine.snapshots_published();
      const auto published = engine.snapshot();
      ASSERT_NE(published, nullptr);
      expect_identical_snapshots(*published, *batch_oracle(engine, scenario.whois));
      if (published->num_malicious_servers() > 0) ++snapshots_with_verdicts;
    };
    for (const auto& event : scenario.events) {
      synth::ingest_event(engine, event);
      compare_published();
      if (::testing::Test::HasFatalFailure()) return;
    }
    engine.finish();
    compare_published();
    // Sync mode publishes once per close (no coalescing), so every
    // publication was compared.
    EXPECT_EQ(engine.windows_coalesced(), 0u);
  }
  // The randomized scenarios must produce real verdicts for the identity
  // gate to bite (over the full sweep; a pinned seed may be benign-only).
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(snapshots_with_verdicts, 0u);
  }
}

// --- seeded WAL/checkpoint corruption fuzzer ---------------------------------
//
// The durability contract under random damage: recovery either (a) fails
// loudly with RecoveryError, or (b) lands on a state equal to replaying a
// PREFIX of the original event schedule — never a silently divergent one.
// The prefix property is checked end-to-end: the recovered engine is fed
// the rest of the schedule and its final snapshot must be byte-identical
// to an engine that saw the whole schedule uninterrupted.

std::string fuzz_dir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("smash_fuzz_dur_" + tag))
      .string();
}

void corrupt_flip(const std::string& path, util::Rng& rng) {
  std::string data = durability::File::read_all(path);
  if (data.empty()) return;
  const std::uint64_t flips = 1 + rng.uniform(4);
  for (std::uint64_t f = 0; f < flips; ++f) {
    data[rng.uniform(data.size())] ^=
        static_cast<char>(1u << rng.uniform(8));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::vector<std::string> wal_segments_of(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& name : durability::File::list_dir(dir)) {
    if (durability::parse_segment_file_name(name)) segments.push_back(name);
  }
  return segments;  // list_dir sorts; zero-padded names sort numerically
}

std::vector<std::string> checkpoints_of(const std::string& dir) {
  std::vector<std::string> checkpoints;
  for (const auto& name : durability::File::list_dir(dir)) {
    if (durability::parse_checkpoint_file_name(name)) checkpoints.push_back(name);
  }
  return checkpoints;
}

// Recovers `dir`, feeds `events[from_event..)`, finishes, and requires the
// final snapshot to match `reference_digest`. Returns false when recovery
// failed loudly (RecoveryError) — the acceptable alternative.
bool recover_and_compare(const stream::StreamConfig& config,
                         const whois::Registry& registry,
                         const std::vector<synth::StreamEvent>& events,
                         std::size_t from_event,
                         const std::string& reference_digest) {
  std::unique_ptr<stream::StreamEngine> recovered;
  try {
    recovered = stream::StreamEngine::recover(config, registry);
  } catch (const durability::RecoveryError&) {
    return false;
  }
  for (std::size_t i = from_event; i < events.size(); ++i) {
    synth::ingest_event(*recovered, events[i]);
  }
  recovered->finish();
  const auto snapshot = recovered->snapshot();
  if (snapshot == nullptr) {
    // A schedule whose verdict-bearing window vanished entirely can only
    // happen when nothing was ever closed; the reference must agree.
    EXPECT_EQ(reference_digest, "");
    return true;
  }
  EXPECT_EQ(snapshot->digest(), reference_digest);
  return true;
}

TEST(FuzzDurability, CorruptedWalTruncatesToValidPrefixOrFailsLoudly) {
  const whois::Registry registry;
  std::size_t recovered_clean = 0;
  std::size_t failed_loudly = 0;
  for (const auto seed : fuzz_seeds(8)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const auto events = random_schedule(seed);
    auto config = schedule_config(seed, /*async=*/false);
    config.durability_dir = fuzz_dir("wal_" + std::to_string(seed));
    config.fsync_policy = stream::WalFsync::kOff;
    config.checkpoint_every_epochs = 1000000;  // pure-WAL recovery
    std::filesystem::remove_all(config.durability_dir);

    // The uninterrupted run (and the reference digest).
    std::string reference_digest;
    {
      stream::StreamEngine engine(config, registry);
      // Simulated hard stop at stream end: no finish(), like a crash.
      for (const auto& event : events) synth::ingest_event(engine, event);
    }
    {
      auto reference = schedule_config(seed, /*async=*/false);
      stream::StreamEngine engine(reference, registry);
      for (const auto& event : events) synth::ingest_event(engine, event);
      engine.finish();
      const auto snapshot = engine.snapshot();
      if (snapshot != nullptr) reference_digest = snapshot->digest();
    }

    const auto segments = wal_segments_of(config.durability_dir);
    ASSERT_FALSE(segments.empty());
    util::Rng rng(seed ^ 0xc0ffeeULL);

    // Damage shape 1: truncate the LAST segment at a random byte — the
    // canonical torn-tail crash. Always recoverable to a prefix.
    {
      const std::string tail =
          config.durability_dir + "/" + segments.back();
      const auto size = durability::File::size_of(tail);
      durability::File::truncate_file(tail, rng.uniform(size + 1));
      auto recovered = stream::StreamEngine::recover(config, registry);
      EXPECT_FALSE(recovered->recovery_stats().used_checkpoint);
      const std::size_t applied =
          static_cast<std::size_t>(recovered->recovery_stats().events_replayed);
      ASSERT_LE(applied, events.size());
      for (std::size_t i = applied; i < events.size(); ++i) {
        synth::ingest_event(*recovered, events[i]);
      }
      recovered->finish();
      const auto snapshot = recovered->snapshot();
      ASSERT_NE(snapshot, nullptr);
      EXPECT_EQ(snapshot->digest(), reference_digest);
      ++recovered_clean;
    }

    // Damage shape 2: rebuild the log (the truncation above consumed it),
    // then flip random bits in a random segment. Recovery must truncate to
    // a valid prefix (flip landed in the last segment) or throw (earlier
    // segment) — never pass damage through.
    std::filesystem::remove_all(config.durability_dir);
    {
      stream::StreamEngine engine(config, registry);
      for (const auto& event : events) synth::ingest_event(engine, event);
    }
    {
      const auto fresh_segments = wal_segments_of(config.durability_dir);
      const std::string victim =
          config.durability_dir + "/" +
          fresh_segments[rng.uniform(fresh_segments.size())];
      corrupt_flip(victim, rng);

      std::unique_ptr<stream::StreamEngine> recovered;
      try {
        recovered = stream::StreamEngine::recover(config, registry);
      } catch (const durability::RecoveryError&) {
        ++failed_loudly;
      }
      if (recovered) {
        const std::size_t applied = static_cast<std::size_t>(
            recovered->recovery_stats().events_replayed);
        ASSERT_LE(applied, events.size());
        for (std::size_t i = applied; i < events.size(); ++i) {
          synth::ingest_event(*recovered, events[i]);
        }
        recovered->finish();
        const auto snapshot = recovered->snapshot();
        ASSERT_NE(snapshot, nullptr);
        EXPECT_EQ(snapshot->digest(), reference_digest);
        ++recovered_clean;
      }
    }
    std::filesystem::remove_all(config.durability_dir);
  }
  // Truncation damage always recovers; over the sweep both outcomes of the
  // bit-flip shape should appear (a pinned seed may only see one).
  EXPECT_GT(recovered_clean, 0u);
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(failed_loudly, 0u);
  }
}

TEST(FuzzDurability, CorruptedCheckpointsFallBackOrFailLoudly) {
  const whois::Registry registry;
  std::size_t fell_back = 0;
  for (const auto seed : fuzz_seeds(6)) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (rerun with SMASH_FUZZ_SEED=" + std::to_string(seed) + ")");
    const auto events = random_schedule(seed);
    auto config = schedule_config(seed, /*async=*/false);
    config.durability_dir = fuzz_dir("ckpt_" + std::to_string(seed));
    config.fsync_policy = stream::WalFsync::kOff;
    config.checkpoint_every_epochs = 2;
    std::filesystem::remove_all(config.durability_dir);

    std::string reference_digest;
    {
      stream::StreamEngine engine(config, registry);
      for (const auto& event : events) synth::ingest_event(engine, event);
    }
    {
      auto reference = schedule_config(seed, /*async=*/false);
      stream::StreamEngine engine(reference, registry);
      for (const auto& event : events) synth::ingest_event(engine, event);
      engine.finish();
      const auto snapshot = engine.snapshot();
      if (snapshot != nullptr) reference_digest = snapshot->digest();
    }

    const auto checkpoints = checkpoints_of(config.durability_dir);
    if (checkpoints.empty()) {
      std::filesystem::remove_all(config.durability_dir);
      continue;  // quiet schedule: nothing checkpointed, nothing to corrupt
    }
    util::Rng rng(seed ^ 0xf00dULL);

    // Corrupt the NEWEST checkpoint: recovery must skip it and win with the
    // previous checkpoint (or none) plus the longer WAL tail — the WAL is
    // intact, so the recovered state must equal the uninterrupted one.
    corrupt_flip(config.durability_dir + "/" + checkpoints.back(), rng);
    {
      std::uint64_t skipped = 0;
      durability::load_latest_checkpoint(config.durability_dir, &skipped);
      EXPECT_GE(skipped, 1u);
    }
    ASSERT_TRUE(recover_and_compare(config, registry, events, events.size(),
                                    reference_digest));
    ++fell_back;

    // Corrupt EVERY checkpoint: recovery replays from segment 1 — which
    // pruning may have removed, in which case it must fail loudly, not
    // fabricate a window.
    for (const auto& name : checkpoints_of(config.durability_dir)) {
      corrupt_flip(config.durability_dir + "/" + name, rng);
    }
    recover_and_compare(config, registry, events, events.size(),
                        reference_digest);

    std::filesystem::remove_all(config.durability_dir);
  }
  if (!test::fuzz_seed_pinned()) {
    EXPECT_GT(fell_back, 0u);
  }
}

}  // namespace
}  // namespace smash
