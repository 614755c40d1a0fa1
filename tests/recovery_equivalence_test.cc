// Differential crash-recovery matrix: for every combination of mining
// thread count {1, 4}, fsync policy {off, on_seal, every_record}, and crash
// point {mid-epoch event write, epoch-seal write, mid-checkpoint install},
// a durable engine is driven into a simulated crash (util::FailPoint ->
// util::SimulatedCrash), recovered with StreamEngine::recover(), fed the
// rest of the schedule, and its final snapshot compared field-by-field
// (tests/stream_fuzz_helpers.h) against an engine that never crashed.
//
// The guarantee under test is the tentpole of the durability layer: a
// recovered engine's subsequent DetectionSnapshots are byte-identical to an
// uninterrupted run's — recovery never invents, drops, or reorders state.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "durability/file.h"
#include "stream/engine.h"
#include "stream_fuzz_helpers.h"
#include "synth/stream_gen.h"
#include "test_helpers.h"
#include "util/failpoint.h"
#include "whois/whois.h"

namespace smash {
namespace {

using util::FailAction;
using util::FailPoint;
using util::SimulatedCrash;

struct CrashPoint {
  const char* name;
  const char* site;  // failpoint site the crash is injected at
  FailAction action;
  std::uint64_t skip;  // hits to let through before firing
  // Whether the record the crash interrupted survives into the recovered
  // state. A "wal." crash interrupts the record being written (crash fires
  // before the bytes land; a short write leaves a torn record that replay
  // truncates), so the in-flight event must be re-fed after recovery. A
  // "ckpt." crash fires after the closing event was journaled AND ingested
  // (checkpoints run in the close epilogue), so re-feeding would double it.
  bool refeed_crashed_event;
};

// The skip counts pick a spot deep enough into the schedule that real
// window state (multiple sealed epochs, often a checkpoint) exists at the
// crash. "wal.write" counts every record append; "wal.fsync" under kOnSeal
// counts epoch seals; "ckpt.rename" counts checkpoint installs.
const CrashPoint kCrashPoints[] = {
    {"mid_epoch", "wal.write", {FailAction::Kind::kCrash, 0}, 120, true},
    {"torn_write", "wal.write", {FailAction::Kind::kShortWrite, 6}, 120, true},
    // Only meaningful under kOnSeal, where every "wal.fsync" hit IS a seal:
    // the seal record is on disk, the sealing event was never journaled.
    {"on_seal", "wal.fsync", {FailAction::Kind::kCrash, 0}, 1, true},
    {"mid_checkpoint", "ckpt.rename", {FailAction::Kind::kCrash, 0}, 1, false},
};

stream::StreamConfig matrix_config(const std::string& dir, unsigned threads,
                                   stream::WalFsync policy) {
  stream::StreamConfig config;
  config.epoch_seconds = test::kFuzzEpochSeconds;
  config.window_epochs = 4;
  config.drop_late_events = false;
  config.smash.idf_threshold = 50;
  config.smash.num_threads = threads;
  config.durability_dir = dir;
  config.fsync_policy = policy;
  config.checkpoint_every_epochs = 2;
  return config;
}

class RecoveryMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoint::disarm_all(); }
  void TearDown() override { FailPoint::disarm_all(); }
};

TEST_F(RecoveryMatrixTest, RecoveredSnapshotsMatchUninterruptedRun) {
  const whois::Registry registry;
  std::size_t crashes_fired = 0;
  std::size_t verdict_runs = 0;

  for (const unsigned threads : {1u, 4u}) {
    for (const auto policy :
         {stream::WalFsync::kOff, stream::WalFsync::kOnSeal,
          stream::WalFsync::kEveryRecord}) {
      for (const CrashPoint& point : kCrashPoints) {
        const std::string label =
            std::string(point.name) + " threads=" + std::to_string(threads) +
            " policy=" + std::to_string(static_cast<int>(policy));
        SCOPED_TRACE(label);

        // One deterministic schedule per cell, so a failure names its cell.
        const std::uint64_t seed =
            1000 + threads * 100 + static_cast<std::uint64_t>(policy) * 10 +
            static_cast<std::uint64_t>(&point - kCrashPoints);
        const auto events = test::random_schedule(seed);

        const std::string dir =
            (std::filesystem::temp_directory_path() /
             ("smash_recovery_matrix_" + std::to_string(seed)))
                .string();
        std::filesystem::remove_all(dir);
        const auto config = matrix_config(dir, threads, policy);

        // The seal-fsync cell is only well-defined under kOnSeal: kOff
        // never fsyncs the WAL, and under kEveryRecord hit N may be an
        // event append rather than a seal.
        if (std::string(point.site) == "wal.fsync" &&
            policy != stream::WalFsync::kOnSeal) {
          continue;
        }

        // Drive the durable engine into the crash.
        std::size_t crashed_at = events.size();
        {
          stream::StreamEngine engine(config, registry);
          FailPoint::Spec spec;
          spec.action = point.action;
          spec.skip = point.skip;
          FailPoint::arm(point.site, spec);
          for (std::size_t i = 0; i < events.size(); ++i) {
            try {
              synth::ingest_event(engine, events[i]);
            } catch (const SimulatedCrash&) {
              crashed_at = i;
              break;
            }
          }
          FailPoint::disarm_all();
        }
        if (crashed_at < events.size()) ++crashes_fired;

        // Recover and finish the schedule. A run that never crashed
        // resumes cleanly from its complete WAL.
        auto recovered = stream::StreamEngine::recover(config, registry);
        EXPECT_TRUE(recovered->recovery_stats().recovered);
        std::size_t resume_at = crashed_at;
        if (crashed_at < events.size() && !point.refeed_crashed_event) {
          resume_at = crashed_at + 1;
        }
        for (std::size_t i = resume_at; i < events.size(); ++i) {
          synth::ingest_event(*recovered, events[i]);
        }
        recovered->finish();

        // The engine that never crashed.
        stream::StreamEngine reference(
            [&] {
              auto c = config;
              c.durability_dir.clear();
              return c;
            }(),
            registry);
        for (const auto& event : events) synth::ingest_event(reference, event);
        reference.finish();

        const auto recovered_snap = recovered->snapshot();
        const auto reference_snap = reference.snapshot();
        ASSERT_NE(recovered_snap, nullptr);
        ASSERT_NE(reference_snap, nullptr);
        test::expect_identical_snapshots(*recovered_snap, *reference_snap);
        EXPECT_EQ(recovered->epochs_closed_total(),
                  reference.epochs_closed_total());
        if (recovered_snap->num_malicious_servers() > 0) ++verdict_runs;

        std::filesystem::remove_all(dir);
      }
    }
  }
  // The matrix must exercise real crashes and real verdicts, not vacuous
  // cells.
  EXPECT_GT(crashes_fired, 0u);
  EXPECT_GT(verdict_runs, 0u);
}

// Async mining on the recovered engine: recovery itself republishes
// synchronously, and subsequent closes mine on the dedicated thread; the
// final snapshot still matches the uninterrupted sync run.
TEST_F(RecoveryMatrixTest, AsyncRecoveredEngineConvergesToSameFinalSnapshot) {
  const whois::Registry registry;
  const auto events = test::random_schedule(77);
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "smash_recovery_matrix_async")
                              .string();
  std::filesystem::remove_all(dir);
  auto config = matrix_config(dir, 1, stream::WalFsync::kOnSeal);
  const std::size_t cut = events.size() / 2;
  {
    stream::StreamEngine engine(config, registry);
    for (std::size_t i = 0; i < cut; ++i) synth::ingest_event(engine, events[i]);
  }
  config.async_mining = true;
  auto recovered = stream::StreamEngine::recover(config, registry);
  for (std::size_t i = cut; i < events.size(); ++i) {
    synth::ingest_event(*recovered, events[i]);
  }
  recovered->finish();

  auto reference_config = config;
  reference_config.durability_dir.clear();
  reference_config.async_mining = false;
  stream::StreamEngine reference(reference_config, registry);
  for (const auto& event : events) synth::ingest_event(reference, event);
  reference.finish();

  const auto recovered_snap = recovered->snapshot();
  const auto reference_snap = reference.snapshot();
  ASSERT_NE(recovered_snap, nullptr);
  ASSERT_NE(reference_snap, nullptr);
  test::expect_identical_snapshots(*recovered_snap, *reference_snap);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smash
