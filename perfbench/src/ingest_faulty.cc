// ingest_faulty: the same building with 1,000 objects (the top of the
// paper's Fig. 12 sweep), all six fault channels on at a few percent, the
// collector's reorder window and the reader-health monitor on, and durable
// persistence: a WAL plus a snapshot every 60 sim-s. One range and
// one kNN query per snapshot interval keep PF-cache entries in the
// snapshots. A round is one Simulation::Step. Each epoch stops between
// snapshots, drops the Simulation, and times recovery.
//
// Simulation::Step does not expose its internals, so a traced epoch also
// runs an ingest replay: the same public calls Step makes, in the same
// order, on its own trace/reading generators, fault injector, collector,
// history store, health monitor and checkpoint manager, built from the same
// config and seed, with a span around each call. After every second the
// replay's collector state must equal the Simulation's.
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "bench.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "sim/experiment.h"

namespace perfbench {
namespace {

using ipqs::obs::MonotonicNanos;

constexpr uint64_t kStream = 0x1265;
constexpr int kObjects = 1000;
constexpr int kSnapshotInterval = 60;
// An epoch measures at least this many steps and then runs on to the middle
// of a snapshot interval, so recovery replays a 30-record WAL tail.
constexpr int kMinMeasuredSteps = 300;
// Recovery is timed this many times per epoch, each from the same crashed
// directory, so every run holds enough samples for a steady median.
constexpr int kRecoveriesPerEpoch = 5;
constexpr int kCrashPhase = 30;
constexpr int kQueryPhase = 15;
// Covers the plan's worst arrival lateness: 2 s of reordering or batch
// delay on top of +-1 s of clock skew on either side.
constexpr int kReorderWindowSeconds = 5;

ipqs::SimulationConfig IngestWorld(uint64_t seed, const std::string& dir) {
  ipqs::SimulationConfig config = TableTwoWorld(seed);
  config.trace.num_objects = kObjects;
  ipqs::FaultPlan& faults = config.faults;
  faults.seed = seed ^ 0xFA17;
  faults.dropout_rate = 0.02;
  faults.duplicate_rate = 0.03;
  faults.reorder_rate = 0.03;
  faults.batch_delay_rate = 0.02;
  faults.noise_burst_rate = 0.02;
  faults.max_clock_skew_seconds = 1;
  config.collector.reorder_window_seconds = kReorderWindowSeconds;
  config.health.enabled = true;
  config.persist.dir = dir;
  // Appends are not fsync'd: see README.md, "Durability policy".
  config.persist.fsync_wal = false;
  config.persist.snapshot_interval_seconds = kSnapshotInterval;
  return config;
}

// The public calls Simulation::Step makes, on a world of their own.
class IngestReplay {
 public:
  IngestReplay(const ipqs::Simulation& sim,
               const ipqs::SimulationConfig& config)
      : world_rng_(config.seed),
        trace_(&sim.graph(), &sim.plan(), config.trace, &world_rng_),
        readings_(&sim.deployment(), ipqs::SensingModel(config.sensing),
                  &world_rng_),
        injector_(config.faults, sim.deployment().num_readers()),
        collector_(config.collector),
        health_(config.health, &collector_, sim.deployment().num_readers()),
        num_readers_(sim.deployment().num_readers()) {}

  IngestReplay(const IngestReplay&) = delete;
  IngestReplay& operator=(const IngestReplay&) = delete;

  ipqs::Status Open(const ipqs::persist::PersistConfig& persist) {
    persist_ = persist;
    return checkpoint_.OpenFresh(persist, {}, 0);
  }

  struct Second {
    size_t readings = 0;   // Generated before fault injection.
    size_t wal_bytes = 0;  // Encoded WAL record.
    int64_t snapshot_bytes = -1;  // -1 when no snapshot was cut.
    ipqs::Status status;
  };

  // One second of Simulation::Step's ingest path. The snapshot carries the
  // Simulation's PF-cache entries, as Step's would.
  Second Step(Ledger* ledger, const ipqs::QueryEngine& pf_engine) {
    Second out;
    ++now_;
    {
      Ledger::Span span(ledger, "sim.trace");
      trace_.Tick();
    }
    std::vector<ipqs::RawReading> batch;
    {
      Ledger::Span span(ledger, "sim.readgen");
      batch = readings_.Generate(trace_.states(), now_);
    }
    out.readings = batch.size();
    {
      Ledger::Span span(ledger, "faults.deliver");
      batch = injector_.Deliver(std::move(batch), now_);
    }
    {
      Ledger::Span span(ledger, "rfid.observe");
      for (int r = 0; r < num_readers_; ++r) {
        if (!injector_.ReaderDown(r, now_)) {
          collector_.NoteReaderHeartbeat(r, now_);
        }
      }
      for (const ipqs::RawReading& reading : batch) {
        collector_.Observe(reading);
        history_.Observe(reading);
      }
    }
    {
      Ledger::Span span(ledger, "rfid.flush");
      collector_.Flush(now_);
    }
    {
      Ledger::Span span(ledger, "health.tick");
      health_.Tick(now_);
    }
    ipqs::persist::WalRecord record;
    record.time = now_;
    record.readings = std::move(batch);
    {
      Ledger::Span span(ledger, "persist.wal");
      out.status = checkpoint_.AppendWal(record);
    }
    if (out.status.ok() && now_ % kSnapshotInterval == 0) {
      Ledger::Span span(ledger, "persist.snapshot");
      ipqs::persist::SnapshotData data;
      data.now = now_;
      data.collector = collector_.ExportState();
      data.history = history_.ExportState();
      data.pf_cache = pf_engine.ExportCacheEntries();
      out.status = checkpoint_.WriteSnapshot(data);
    }
    if (ledger != nullptr) {
      out.wal_bytes = ipqs::persist::WalWriter::Encode(record).size();
      if (now_ % kSnapshotInterval == 0) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(
            ipqs::persist::CheckpointManager::SnapshotPath(persist_.dir, now_),
            ec);
        out.snapshot_bytes = ec ? 0 : static_cast<int64_t>(size);
      }
    }
    return out;
  }

  const ipqs::DataCollector& collector() const { return collector_; }

 private:
  ipqs::Rng world_rng_;
  ipqs::TraceGenerator trace_;
  ipqs::ReadingGenerator readings_;
  ipqs::FaultInjector injector_;
  ipqs::DataCollector collector_;
  ipqs::HistoryStore history_;
  ipqs::ReaderHealthMonitor health_;
  ipqs::persist::CheckpointManager checkpoint_;
  ipqs::persist::PersistConfig persist_;
  int num_readers_ = 0;
  int64_t now_ = 0;
};

class IngestFaultyLoop : public Loop {
 public:
  explicit IngestFaultyLoop(const LoopSetup& setup) : Loop(setup) {}

  const char* name() const override { return "ingest_faulty"; }
  std::string Params() const override {
    const ipqs::SimulationConfig c = IngestWorld(0, "");
    const ipqs::FaultPlan& f = c.faults;
    return "{\"objects\":" + std::to_string(c.trace.num_objects) +
           ",\"dropout\":" + std::to_string(f.dropout_rate) +
           ",\"duplicate\":" + std::to_string(f.duplicate_rate) +
           ",\"reorder\":" + std::to_string(f.reorder_rate) +
           ",\"batch_delay\":" + std::to_string(f.batch_delay_rate) +
           ",\"noise_burst\":" + std::to_string(f.noise_burst_rate) +
           ",\"clock_skew_s\":" + std::to_string(f.max_clock_skew_seconds) +
           ",\"reorder_window_s\":" +
           std::to_string(c.collector.reorder_window_seconds) +
           ",\"health\":" + (c.health.enabled ? "true" : "false") +
           ",\"fsync_wal\":" + (c.persist.fsync_wal ? "true" : "false") +
           ",\"snapshot_interval_s\":" +
           std::to_string(c.persist.snapshot_interval_seconds) +
           ",\"min_measured_steps\":" +
           std::to_string(RoundsPerEpoch(kMinMeasuredSteps)) +
           ",\"crash_phase_s\":" + std::to_string(kCrashPhase) +
           ",\"recoveries_per_epoch\":" +
           std::to_string(kRecoveriesPerEpoch) + "}";
  }

  void Advance() override {
    if (sim_ == nullptr) {
      StartEpoch();
      return;
    }
    if (sim_->now() < end_time_) {
      RunRound(/*measured=*/true);
    }
    if (sim_->now() >= end_time_) {
      EndEpoch();
    }
  }

  void Rewarm() override {
    if (sim_ != nullptr && sim_->now() < end_time_) {
      RunRound(/*measured=*/false);
    }
  }

  void Finish() override {
    // An epoch always runs to its crash point, so every recovery replays
    // the same kind of WAL tail.
    while (sim_ != nullptr) {
      Advance();
    }
  }

  void EndToEnd(Report* report) const override {
    const std::vector<double>& steps = step_ms_[0];
    const int64_t n = static_cast<int64_t>(steps.size());
    report->Add("step_p50_ms", Quantile(steps, 0.5), "ms", n);
    report->Add("step_p99_ms", Quantile(steps, 0.99), "ms", n);
    // Per epoch, so one epoch of slow snapshot writes moves the median of
    // the run by one rank instead of skewing a run-long ratio.
    report->Add("ingest_rps", Median(epoch_rps_), "readings/s",
                static_cast<int64_t>(epoch_rps_.size()));
    report->Add("recover_s", Median(recover_s_),
                "s", static_cast<int64_t>(recover_s_.size()));
  }

  void PerLayer(Report* report) const override {
    const int64_t seconds = ledger_.rounds();
    const auto per_second = [&](double v) {
      return seconds == 0 ? 0.0 : v / static_cast<double>(seconds);
    };
    const auto span_ms = [&](const char* span) {
      return per_second(Millis(ledger_.SelfNs(span)));
    };
    const auto ratio = [](double num, double den) {
      return den == 0.0 ? 0.0 : num / den;
    };
    const double delivered =
        static_cast<double>(measured_.Counter("collector.readings"));
    report->Add("sim.trace_ms", span_ms("sim.trace"), "ms", seconds);
    report->Add("sim.readgen_ms", span_ms("sim.readgen"), "ms", seconds);
    report->Add("sim.readings", per_second(static_cast<double>(readings_)),
                "count", seconds);
    report->Add("faults.deliver_ms", span_ms("faults.deliver"), "ms", seconds);
    report->Add("faults.injected",
                per_second(static_cast<double>(
                    measured_.Counter("faults.injected"))),
                "count", seconds);
    report->Add("rfid.observe_ms", span_ms("rfid.observe"), "ms", seconds);
    report->Add("rfid.flush_ms", span_ms("rfid.flush"), "ms", seconds);
    report->Add("rfid.applied",
                ratio(static_cast<double>(measured_.Counter("collector.entries")),
                      delivered),
                "ratio", static_cast<int64_t>(delivered));
    report->Add("rfid.late_dropped",
                ratio(static_cast<double>(
                          measured_.Counter("collector.late_dropped")),
                      delivered),
                "ratio", static_cast<int64_t>(delivered));
    report->Add("rfid.dup_dropped",
                ratio(static_cast<double>(
                          measured_.Counter("collector.duplicates_dropped")),
                      delivered),
                "ratio", static_cast<int64_t>(delivered));
    report->Add("health.tick_ms", span_ms("health.tick"), "ms", seconds);
    report->Add("health.transitions",
                per_second(static_cast<double>(
                    measured_.Counter("health.transitions"))),
                "count", seconds);
    report->Add("persist.wal_ms", span_ms("persist.wal"), "ms", seconds);
    report->Add("persist.wal_bytes", per_second(static_cast<double>(wal_bytes_)),
                "bytes", seconds);
    const auto snap = ledger_.totals().find("persist.snapshot");
    const int64_t snapshots =
        snap == ledger_.totals().end() ? 0 : snap->second.count;
    report->Add("persist.snapshot_ms",
                snapshots == 0 ? 0.0 : Millis(snap->second.self_ns) / snapshots,
                "ms", snapshots);
    report->Add("persist.snapshot_bytes",
                snapshots == 0 ? 0.0
                               : static_cast<double>(snapshot_bytes_) /
                                     static_cast<double>(snapshots),
                "bytes", snapshots);
    report->Add("persist.recover_load_ms", Median(recover_load_ms_), "ms",
                static_cast<int64_t>(recover_load_ms_.size()));
    report->Add("persist.replay_ms", Median(replay_ms_), "ms",
                static_cast<int64_t>(replay_ms_.size()));
  }

  double TracedLatency() const override { return Quantile(step_ms_[1], 0.5); }
  double UntracedLatency() const override {
    return Quantile(step_ms_[0], 0.5);
  }

 private:
  std::string Dir(const char* suffix) const {
    return setup_.options->scratch_dir + "/ingest-" + std::to_string(epoch_) +
           suffix;
  }

  static void RemoveDir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void StartEpoch() {
    const uint64_t seed = OpenEpoch(kStream);
    RemoveDir(Dir(""));
    RemoveDir(Dir("-replay"));
    config_ = IngestWorld(seed, Dir(""));
    if (epoch_traced_) {
      config_.metrics = &registry_;
      config_.trace_recorder = recorder_.get();
    }
    end_time_ = kWarmupSeconds + 1 + RoundsPerEpoch(kMinMeasuredSteps);
    while (end_time_ % kSnapshotInterval != kCrashPhase) {
      ++end_time_;
    }

    const int64_t start = MonotonicNanos();
    auto sim_or = [&] {
      Ledger::Span span(EpochLedger(), "sim.create");
      return ipqs::Simulation::Create(config_);
    }();
    tally_.Check(sim_or.ok(), "ingest_faulty: Simulation::Create failed: " +
                                  sim_or.status().ToString());
    if (!sim_or.ok()) {
      done_ = true;
      return;
    }
    sim_ = std::move(*sim_or);
    if (epoch_traced_) {
      replay_ = std::make_unique<IngestReplay>(*sim_, config_);
      ipqs::persist::PersistConfig persist = config_.persist;
      persist.dir = Dir("-replay");
      const ipqs::Status status = replay_->Open(persist);
      tally_.Check(status.ok(), "ingest_faulty: replay OpenFresh failed");
    }
    for (int s = 0; s < kWarmupSeconds; ++s) {
      RunRound(/*measured=*/false);
    }
    RunRound(/*measured=*/false);  // The first round.
    EndSetup(start);
  }

  void RunRound(bool measured) {
    const int64_t late_before = sim_->collector().ingest_stats().late_dropped;
    if (replay_ != nullptr) {
      Ledger* ledger = measured ? &ledger_ : nullptr;
      if (ledger != nullptr) {
        ledger->BeginRound(round_id_);
      }
      const IngestReplay::Second second =
          replay_->Step(ledger, sim_->pf_engine());
      if (ledger != nullptr) {
        step_ms_[1].push_back(Millis(ledger->EndRound()));
        readings_ += static_cast<int64_t>(second.readings);
        wal_bytes_ += static_cast<int64_t>(second.wal_bytes);
        if (second.snapshot_bytes >= 0) {
          snapshot_bytes_ += second.snapshot_bytes;
        }
      }
      if (!second.status.ok()) {
        tally_.Check(false, "ingest_faulty: replay persist failed: " +
                                second.status.ToString());
      }
      sim_->Step();
      // Compared outside the round: a mismatch means the replay is not
      // Step's ingest path, so its split would be wrong.
      tally_.Check(replay_->collector().ExportState() ==
                       sim_->collector().ExportState(),
                   "ingest_faulty: replay collector state differs from the "
                   "Simulation's");
    } else {
      const int64_t detections = sim_->reading_stats().detections;
      const int64_t t0 = MonotonicNanos();
      sim_->Step();
      const int64_t dt = MonotonicNanos() - t0;
      if (measured) {
        step_ms_[0].push_back(Millis(dt));
        epoch_step_ns_ += dt;
        epoch_detections_ += sim_->reading_stats().detections - detections;
      }
    }
    ++round_id_;
    tally_.Check(sim_->collector().ingest_stats().late_dropped == late_before,
                 "ingest_faulty: a reading arrived behind the watermark");
    tally_.Check(sim_->persist_status().ok(),
                 "ingest_faulty: persistence failed: " +
                     sim_->persist_status().ToString());
    if (sim_->now() % kSnapshotInterval == kQueryPhase) {
      // Keeps PF-cache entries in the snapshots; untimed.
      ipqs::QueryEngine& engine = sim_->pf_engine();
      const ipqs::Rect window = ipqs::Experiment::RandomWindow(
          sim_->plan(), kWindowAreaFraction, sim_->query_rng());
      const ipqs::Point point = ipqs::Experiment::RandomIndoorPoint(
          sim_->anchors(), sim_->query_rng());
      tally_.Check(engine.EvaluateRange(window, sim_->now()).quality ==
                       ipqs::QualityLevel::kFull,
                   "ingest_faulty: range answer below kFull");
      tally_.Check(engine.EvaluateKnn(point, kKnnK, sim_->now()).result.quality ==
                       ipqs::QualityLevel::kFull,
                   "ingest_faulty: kNN answer below kFull");
    }
  }

  void EndEpoch() {
    if (epoch_step_ns_ > 0) {
      epoch_rps_.push_back(static_cast<double>(epoch_detections_) /
                           Seconds(epoch_step_ns_));
    }
    epoch_step_ns_ = 0;
    epoch_detections_ = 0;
    StopMeasuring();
    const ipqs::DataCollector::PersistedState collector =
        sim_->collector().ExportState();
    const ipqs::HistoryStore::PersistedState history =
        sim_->history().ExportState();
    // The crash: the process state is gone, only the directory remains.
    replay_.reset();
    sim_.reset();
    ipqs::SimulationConfig recover = config_;
    recover.persist_recover = true;
    recover.metrics = nullptr;
    recover.trace_recorder = nullptr;
    for (int k = 0; k < kRecoveriesPerEpoch; ++k) {
      if (epoch_traced_) {
        const int64_t t0 = MonotonicNanos();
        bool loaded = false;
        {
          Ledger::Span span(EpochLedger(), "persist.recover");
          loaded =
              ipqs::persist::CheckpointManager::Recover(recover.persist).ok();
        }
        recover_load_ms_.push_back(Millis(MonotonicNanos() - t0));
        tally_.Check(loaded, "ingest_faulty: CheckpointManager::Recover");
      }
      const int64_t t0 = MonotonicNanos();
      auto recovered_or = [&] {
        Ledger::Span span(EpochLedger(), "sim.recover");
        return ipqs::Simulation::Create(recover);
      }();
      const int64_t dt = MonotonicNanos() - t0;
      tally_.Check(recovered_or.ok(), "ingest_faulty: recovery failed");
      if (!recovered_or.ok()) {
        continue;
      }
      const ipqs::Simulation& recovered = **recovered_or;
      if (epoch_traced_) {
        replay_ms_.push_back(Millis(recovered.recovery_report().replay_ns));
      } else {
        recover_s_.push_back(Seconds(dt));
      }
      tally_.Check(recovered.collector().ExportState() == collector,
                   "ingest_faulty: recovered collector state differs");
      tally_.Check(recovered.history().ExportState() == history,
                   "ingest_faulty: recovered history state differs");
      tally_.Check(recovered.recovery_report().wal_records_replayed > 0,
                   "ingest_faulty: recovery replayed no WAL tail");
    }
    RemoveDir(Dir(""));
    RemoveDir(Dir("-replay"));
    CloseEpoch();
  }

  int64_t round_id_ = 0;
  int64_t end_time_ = 0;
  ipqs::SimulationConfig config_;
  std::unique_ptr<ipqs::Simulation> sim_;
  std::unique_ptr<IngestReplay> replay_;

  std::vector<double> step_ms_[2];  // [0] untraced Step, [1] traced replay.
  int64_t epoch_step_ns_ = 0;
  int64_t epoch_detections_ = 0;
  std::vector<double> epoch_rps_;  // Untraced epochs.
  std::vector<double> recover_s_;
  std::vector<double> recover_load_ms_;
  std::vector<double> replay_ms_;
  int64_t readings_ = 0;
  int64_t wal_bytes_ = 0;
  int64_t snapshot_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Loop> MakeIngestFaultyLoop(const LoopSetup& setup) {
  return std::make_unique<IngestFaultyLoop>(setup);
}

}  // namespace perfbench
