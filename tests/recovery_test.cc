#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/io_util.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

namespace fs = std::filesystem;

// Kill-and-recover equivalence: a simulation killed mid-run and recovered
// from its checkpoint directory must answer queries byte-identically to a
// control run that never crashed. Inference is a pure function of (engine
// seed, object history, now) — but with the cache enabled it additionally
// depends on which timestamps were queried before, so both the persisted
// and the control run issue the same warm-up queries before the cut.

// Warm-up queries run BEFORE the first snapshot cut, so every snapshot a
// test recovers from (t=25 or, after corruption fallback, t=50) carries
// the same cached particle states the control run holds.
constexpr int kWarmupSeconds = 20;   // Warm-up queries issued here.
constexpr int kKillSeconds = 60;     // The persisted run dies here.
constexpr int kSnapshotInterval = 25;  // Snapshots at t=25 and t=50.

struct RunParams {
  int num_threads = 1;
  bool faulted = false;
  // Negative information weights silence by per-second reader liveness,
  // which neither snapshots nor the WAL carry: recovery must rebuild it.
  bool negative_info = false;
};

std::string ParamName(const ::testing::TestParamInfo<RunParams>& info) {
  return "threads" + std::to_string(info.param.num_threads) +
         (info.param.faulted ? "_faulted" : "_clean") +
         (info.param.negative_info ? "_neginfo" : "");
}

class RecoveryTest : public ::testing::TestWithParam<RunParams> {
 protected:
  SimulationConfig BaseConfig() const {
    SimulationConfig config;
    config.trace.num_objects = 20;
    config.num_readers = 10;
    config.seed = 123;
    config.num_threads = GetParam().num_threads;
    config.filter.measurement.use_negative_information =
        GetParam().negative_info;
    if (GetParam().faulted) {
      // The chaos fault channels from src/faults/, plus the reorder buffer
      // sized to the delivery bound — the configuration the hardened
      // ingestion path is meant to absorb. The WAL records the
      // post-injection batches, so replay re-drives the exact same
      // degraded stream.
      config.faults.seed = 77;
      config.faults.dropout_rate = 0.1;
      config.faults.duplicate_rate = 0.1;
      config.faults.reorder_rate = 0.2;
      config.faults.reorder_max_delay_seconds = 2;
      config.collector.reorder_window_seconds = 2;
    }
    return config;
  }

  std::string FreshDir(const std::string& name) {
    const std::string dir =
        (fs::path(::testing::TempDir()) /
         ("recovery_" + name + "_" + ParamName({GetParam(), 0})))
            .string();
    fs::remove_all(dir);
    return dir;
  }

  // Runs `sim` to `seconds`, issuing the fixed warm-up query panel when the
  // clock passes kWarmupSeconds. Every run in a test uses this driver so
  // cache state evolves identically everywhere.
  void RunTo(Simulation& sim, int seconds) {
    if (sim.now() < kWarmupSeconds && seconds >= kWarmupSeconds) {
      sim.Run(static_cast<int>(kWarmupSeconds - sim.now()));
      WarmupQueries(sim);
    }
    sim.Run(static_cast<int>(seconds - sim.now()));
  }

  void WarmupQueries(Simulation& sim) {
    Rng rng(999);  // Fresh per run: identical windows in every run.
    for (int i = 0; i < 3; ++i) {
      const Rect window = Experiment::RandomWindow(sim.plan(), 0.05, rng);
      sim.pf_engine().EvaluateRange(window, sim.now());
    }
  }

  // The probe panel whose answers must match byte for byte.
  struct Probe {
    std::vector<QueryResult> pf_range;
    std::vector<QueryResult> sm_range;
    std::vector<KnnResult> pf_knn;
  };

  Probe ProbeQueries(Simulation& sim) {
    Probe probe;
    Rng rng(4242);
    const int64_t now = sim.now();
    for (int i = 0; i < 5; ++i) {
      const Rect window = Experiment::RandomWindow(sim.plan(), 0.05, rng);
      probe.pf_range.push_back(sim.pf_engine().EvaluateRange(window, now));
      probe.sm_range.push_back(sim.sm_engine().EvaluateRange(window, now));
    }
    for (int i = 0; i < 2; ++i) {
      const Point q = Experiment::RandomIndoorPoint(sim.anchors(), rng);
      probe.pf_knn.push_back(sim.pf_engine().EvaluateKnn(q, 3, now));
    }
    return probe;
  }

  static void ExpectIdentical(const Probe& expected, const Probe& actual) {
    ASSERT_EQ(expected.pf_range.size(), actual.pf_range.size());
    for (size_t i = 0; i < expected.pf_range.size(); ++i) {
      EXPECT_EQ(expected.pf_range[i].objects, actual.pf_range[i].objects)
          << "pf range query " << i;
      EXPECT_EQ(expected.pf_range[i].quality, actual.pf_range[i].quality);
      EXPECT_EQ(expected.sm_range[i].objects, actual.sm_range[i].objects)
          << "sm range query " << i;
    }
    ASSERT_EQ(expected.pf_knn.size(), actual.pf_knn.size());
    for (size_t i = 0; i < expected.pf_knn.size(); ++i) {
      EXPECT_EQ(expected.pf_knn[i].result.objects,
                actual.pf_knn[i].result.objects)
          << "pf knn query " << i;
      EXPECT_EQ(expected.pf_knn[i].total_probability,
                actual.pf_knn[i].total_probability);
    }
  }

  // Runs the persisted simulation to kKillSeconds and "kills" it: the
  // Simulation is destroyed with whatever the checkpoint directory holds.
  void RunAndKill(const std::string& dir) {
    SimulationConfig config = BaseConfig();
    config.persist.dir = dir;
    config.persist.snapshot_interval_seconds = kSnapshotInterval;
    config.persist.fsync_wal = false;  // Test speed; framing is unchanged.
    std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
    RunTo(*sim, kKillSeconds);
    ASSERT_TRUE(sim->persist_status().ok()) << sim->persist_status();
    // No shutdown courtesy: destroyed mid-flight, like a crash. (The WAL
    // is fflush'd per append, so the bytes are in the file.)
  }

  std::unique_ptr<Simulation> Recover(const std::string& dir) {
    SimulationConfig config = BaseConfig();
    config.persist.dir = dir;
    config.persist.snapshot_interval_seconds = kSnapshotInterval;
    config.persist.fsync_wal = false;
    config.persist_recover = true;
    return Simulation::Create(config).value();
  }

  // An identical run with persistence off — the never-crashed control.
  std::unique_ptr<Simulation> Control(int seconds) {
    std::unique_ptr<Simulation> sim =
        Simulation::Create(BaseConfig()).value();
    RunTo(*sim, seconds);
    return sim;
  }
};

TEST_P(RecoveryTest, KillAndRecoverAnswersAreByteIdentical) {
  const std::string dir = FreshDir("kill");
  RunAndKill(dir);

  std::unique_ptr<Simulation> control = Control(kKillSeconds);
  std::unique_ptr<Simulation> recovered = Recover(dir);
  const RecoveryReport& report = recovered->recovery_report();
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.from_snapshot);
  EXPECT_EQ(report.snapshot_time, 50);
  EXPECT_EQ(report.wal_records_replayed, 10u);  // 51..60.
  EXPECT_EQ(report.corrupt_snapshots_skipped, 0);
  EXPECT_EQ(report.wal_tails_truncated, 0);
  EXPECT_EQ(recovered->now(), kKillSeconds);

  // The recovered serving state IS the control's serving state. (Compare
  // before probing: probe queries themselves update the caches.)
  EXPECT_EQ(recovered->collector().ExportState(),
            control->collector().ExportState());
  EXPECT_EQ(recovered->history().ExportState(),
            control->history().ExportState());
  EXPECT_EQ(recovered->pf_engine().ExportCacheEntries(),
            control->pf_engine().ExportCacheEntries());

  Probe expected = ProbeQueries(*control);
  Probe actual = ProbeQueries(*recovered);
  ExpectIdentical(expected, actual);

  // The recovered run keeps serving and persisting. (Its WORLD generators
  // restart by design, so the stream it ingests from here on is not the
  // control's — only the recovered serving state is contractual.)
  recovered->Run(10);
  EXPECT_EQ(recovered->now(), kKillSeconds + 10);
  EXPECT_TRUE(recovered->persist_status().ok()) << recovered->persist_status();
}

TEST_P(RecoveryTest, TornWalTailRecoversToLastDurableSecond) {
  const std::string dir = FreshDir("torn");
  RunAndKill(dir);

  // Tear the newest WAL segment mid-record: the crash hit during the
  // append for second 60. Recovery must land on second 59 — never a
  // half-applied 60.
  const std::string wal = persist::CheckpointManager::WalPath(dir, 50);
  ASSERT_TRUE(fs::exists(wal));
  const auto size = fs::file_size(wal);
  ASSERT_GT(size, 3u);
  fs::resize_file(wal, size - 3);

  std::unique_ptr<Simulation> recovered = Recover(dir);
  const RecoveryReport& report = recovered->recovery_report();
  EXPECT_EQ(report.wal_tails_truncated, 1);
  EXPECT_EQ(recovered->now(), kKillSeconds - 1);

  std::unique_ptr<Simulation> control = Control(kKillSeconds - 1);
  EXPECT_EQ(recovered->collector().ExportState(),
            control->collector().ExportState());
  ExpectIdentical(ProbeQueries(*control), ProbeQueries(*recovered));
}

TEST_P(RecoveryTest, CorruptNewestSnapshotFallsBackToOlderOne) {
  const std::string dir = FreshDir("corrupt");
  RunAndKill(dir);

  // Rot a byte in the newest snapshot (t=50). Recovery must skip it,
  // restore snap-25, and replay the longer WAL tail 26..60 — same final
  // state, one counted (not fatal) corruption.
  const std::string newest = persist::CheckpointManager::SnapshotPath(dir, 50);
  ASSERT_TRUE(fs::exists(newest));
  {
    std::string bytes;
    ASSERT_TRUE(persist::ReadFileToString(newest, &bytes).ok());
    bytes[bytes.size() - 5] ^= 0xFF;
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::unique_ptr<Simulation> recovered = Recover(dir);
  const RecoveryReport& report = recovered->recovery_report();
  EXPECT_EQ(report.corrupt_snapshots_skipped, 1);
  EXPECT_TRUE(report.from_snapshot);
  EXPECT_EQ(report.snapshot_time, 25);
  EXPECT_EQ(recovered->now(), kKillSeconds);

  std::unique_ptr<Simulation> control = Control(kKillSeconds);
  EXPECT_EQ(recovered->collector().ExportState(),
            control->collector().ExportState());
  ExpectIdentical(ProbeQueries(*control), ProbeQueries(*recovered));
}

INSTANTIATE_TEST_SUITE_P(Threads, RecoveryTest,
                         ::testing::Values(RunParams{1, false},
                                           RunParams{4, false},
                                           RunParams{8, false},
                                           RunParams{1, true},
                                           RunParams{4, true},
                                           RunParams{8, true},
                                           RunParams{1, false, true},
                                           RunParams{1, true, true},
                                           RunParams{4, true, true}),
                         ParamName);

TEST(RecoveryConfigTest, RecoverWithoutDirIsInvalid) {
  SimulationConfig config;
  config.trace.num_objects = 5;
  config.persist_recover = true;
  const StatusOr<std::unique_ptr<Simulation>> sim =
      Simulation::Create(config);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryConfigTest, FreshStartRefusesNonEmptyCheckpointDir) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "recovery_refuse").string();
  fs::remove_all(dir);

  SimulationConfig config;
  config.trace.num_objects = 5;
  config.num_readers = 6;
  config.persist.dir = dir;
  config.persist.fsync_wal = false;
  {
    std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
    sim->Run(3);
  }
  // A second fresh start over live state must refuse, not overwrite.
  const StatusOr<std::unique_ptr<Simulation>> again =
      Simulation::Create(config);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace ipqs
