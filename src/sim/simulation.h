#ifndef IPQS_SIM_SIMULATION_H_
#define IPQS_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>

#include "common/statusor.h"
#include "faults/fault_injector.h"
#include "obs/timeseries.h"
#include "floorplan/io.h"
#include "persist/checkpoint.h"
#include "floorplan/office_generator.h"
#include "graph/anchor_graph.h"
#include "graph/anchor_points.h"
#include "graph/graph_builder.h"
#include "query/query_engine.h"
#include "query/subscription.h"
#include "rfid/history_store.h"
#include "sim/ground_truth.h"
#include "sim/reading_generator.h"
#include "sim/trace_generator.h"
#include "symbolic/deployment_graph.h"

namespace ipqs {

// Everything needed to stand up the full simulated system of Figure 8:
// the building, the deployment, the moving objects, the RFID stream, the
// two competing query engines, and the ground truth.
struct SimulationConfig {
  OfficeConfig office;            // 30 rooms / 4 hallways by default.
  // When set, use this plan instead of generating the office, and (when
  // non-empty) these reader placements instead of the uniform deployment.
  // Lets experiments run against buildings loaded from text files
  // (floorplan/io.h).
  std::optional<FloorPlan> custom_plan;
  std::vector<ReaderSpec> custom_readers;
  int num_readers = 19;           // Paper's deployment.
  double activation_range = 2.0;  // Meters (Table 2 default).
  double anchor_spacing = 1.0;    // Meters between anchor points.
  SensingConfig sensing;
  TraceConfig trace;              // 200 objects by default.
  FilterConfig filter;            // 64 particles by default.
  SymbolicConfig symbolic;
  double max_speed = 1.5;         // u_max for pruning & symbolic model.
  bool use_pruning = true;
  bool use_cache = true;
  // Per-reader distance tables for kNN pruning in both engines (see
  // EngineConfig::use_distance_index); off = exact per-query Dijkstra.
  bool use_distance_index = true;
  // Fan-out width for per-object inference in both engines (see
  // EngineConfig::num_threads); answers are independent of this knob.
  int num_threads = 1;
  // Method the comparison engine (`sm_engine()`) runs; the paper compares
  // against kSymbolicModel, kLastReading is the naive sanity floor.
  InferenceMethod baseline_method = InferenceMethod::kSymbolicModel;
  uint64_t seed = 42;
  // Fault injection (src/faults/): when any channel is enabled the raw
  // reading stream is degraded between ReadingGenerator and the ingestion
  // path. The default plan is a no-op and costs nothing.
  FaultPlan faults;
  // Ingestion hardening (reorder buffer window etc.); the default is the
  // original trusting pass-through collector.
  CollectorConfig collector;
  // Reader health monitoring (src/health/): with health.enabled, a monitor
  // ticks once per simulated second after the ingest flush, feeds both
  // engines' silence-trust and coverage_degraded annotations, and registers
  // health.* metrics. Off by default: answers are byte-identical to a
  // build without the monitor (pinned by tests/determinism_test.cc).
  ReaderHealthConfig health;
  // Observability (all optional; see EngineConfig). With `metrics` set,
  // the PF engine registers under "pf", the baseline under "sm", and the
  // data collector under "collector". With `sampler` set, every Step()
  // snapshots the registry into the time-series ring (sampler and metrics
  // should share the registry, or the samples are empty). None of these
  // perturb simulation state or query answers.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace_recorder = nullptr;
  obs::TimeSeriesSampler* sampler = nullptr;
  // Per-query deadline forwarded to both engines (see
  // EngineConfig::deadline_ms); 0 = never degrade.
  int64_t deadline_ms = 0;
  DegradePolicy degrade;
  // Standing-query subscriptions (src/query/subscription.h). With
  // num_subscriptions > 0, Init registers a random mix of range/kNN
  // subscriptions against a DEDICATED subscription engine (PF method, own
  // cache, private metrics registry) and Step ticks the manager every
  // sub_poll_interval_seconds. The subscription path shares only the
  // const collector with the serving engines, so ad-hoc pf/sm answers are
  // byte-identical with subscriptions on or off (pinned by
  // tests/determinism_test.cc). Subscription windows/points are drawn
  // from a dedicated RNG stream — never from world or query streams.
  int num_subscriptions = 0;
  int sub_poll_interval_seconds = 1;
  // Mix: the first ceil(fraction * n) subscriptions are range windows
  // (covering sub_window_area_fraction of the plan), the rest kNN points
  // with k = sub_k.
  double sub_range_fraction = 0.5;
  int sub_k = 3;
  double sub_window_area_fraction = 0.02;
  // Off = the manager re-evaluates every subscription each tick (the
  // poll-everything baseline); answers and deltas are byte-identical.
  bool sub_incremental = true;
  // Durability (src/persist/): with persist.dir set, every Step appends
  // the second's delivered batch to the WAL and a snapshot of the serving
  // state is cut every persist.snapshot_interval_seconds.
  persist::PersistConfig persist;
  // Recover from persist.dir instead of starting fresh: load the newest
  // valid snapshot, replay the WAL tail through the normal ingestion path,
  // and resume the clock at the last durable second. Restores the SERVING
  // state (collector, history store, PF cache, clock) — the world-side
  // generators (object traces, reading generation) restart from the
  // configured seed, so recovery is for serving queries over ingested
  // data, not for resuming trace generation mid-walk.
  bool persist_recover = false;
};

// What recovery found and replayed (valid when persist_recover was set).
struct RecoveryReport {
  bool recovered = false;
  bool from_snapshot = false;
  int64_t snapshot_time = -1;        // -1 when cold-started from the WAL.
  size_t wal_records_replayed = 0;
  int corrupt_snapshots_skipped = 0;
  int wal_tails_truncated = 0;
  int64_t replay_ns = 0;
};

// Owns the complete simulated world and keeps the particle-filter engine
// and the symbolic-model engine fed from the same raw reading stream so
// their answers are directly comparable.
class Simulation {
 public:
  static StatusOr<std::unique_ptr<Simulation>> Create(
      const SimulationConfig& config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Advances the world by one second: objects move, readers read, the data
  // collector ingests.
  void Step();
  void Run(int seconds);

  int64_t now() const { return now_; }

  const SimulationConfig& config() const { return config_; }
  const FloorPlan& plan() const { return plan_; }
  const WalkingGraph& graph() const { return graph_; }
  const AnchorPointIndex& anchors() const { return *anchors_; }
  const AnchorGraph& anchor_graph() const { return *anchor_graph_; }
  const Deployment& deployment() const { return deployment_; }
  const DeploymentGraph& deployment_graph() const { return *deployment_graph_; }
  const DataCollector& collector() const { return collector_; }
  // Full reading log (for historical queries via HistoricalEngine).
  const HistoryStore& history() const { return history_; }
  const GroundTruth& ground_truth() const { return *ground_truth_; }
  const std::vector<TrueObjectState>& true_states() const {
    return trace_->states();
  }
  const ReadingGenerator::Stats& reading_stats() const {
    return readings_->stats();
  }
  // Nullptr when the configured FaultPlan has every channel off.
  const FaultInjector* fault_injector() const { return injector_.get(); }
  FaultInjector::Stats fault_stats() const {
    return injector_ == nullptr ? FaultInjector::Stats{} : injector_->stats();
  }
  // Nullptr when config.health.enabled is false.
  const ReaderHealthMonitor* health_monitor() const { return health_.get(); }
  ReaderHealthStats health_stats() const {
    return health_ == nullptr ? ReaderHealthStats{} : health_->stats();
  }

  QueryEngine& pf_engine() { return *pf_engine_; }
  QueryEngine& sm_engine() { return *sm_engine_; }
  // Nullptr when config.num_subscriptions == 0.
  SubscriptionManager* subscriptions() { return subscriptions_.get(); }
  // The dedicated engine the subscriptions evaluate through (valid only
  // when subscriptions are configured).
  QueryEngine& sub_engine() { return *sub_engine_; }

  // Forces a snapshot of the current serving state (normally one is cut
  // every persist.snapshot_interval_seconds during Step). No-op error if
  // persistence is not enabled.
  Status CheckpointNow();

  // First persistence failure (WAL append or snapshot write), if any;
  // after a failure the simulation keeps running but stops persisting.
  const Status& persist_status() const { return persist_status_; }

  // Populated when the simulation was created with persist_recover.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

  // A dedicated random stream for experiment-level draws (query windows,
  // query points), independent of the world's evolution.
  Rng& query_rng() { return query_rng_; }

 private:
  explicit Simulation(const SimulationConfig& config);
  Status Init();

  // Serving state as of now_, ready to write out.
  persist::SnapshotData BuildSnapshot() const;
  // Restores snapshot state (if any) and replays the WAL tail through the
  // normal ingestion path (Observe + Flush, second by second), then
  // re-marks the collector's reader liveness for every retained second.
  Status RecoverServingState();
  // The readers that are up at `second` under the fault plan (all of them
  // without one): those whose heartbeat Step notes.
  std::vector<ReaderId> UpReaders(int64_t second) const;

  SimulationConfig config_;
  FloorPlan plan_;
  WalkingGraph graph_;
  std::unique_ptr<AnchorPointIndex> anchors_;
  std::unique_ptr<AnchorGraph> anchor_graph_;
  Deployment deployment_;
  std::unique_ptr<DeploymentGraph> deployment_graph_;
  DataCollector collector_;
  HistoryStore history_;

  Rng world_rng_;
  Rng query_rng_;
  std::unique_ptr<TraceGenerator> trace_;
  std::unique_ptr<ReadingGenerator> readings_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ReaderHealthMonitor> health_;
  std::unique_ptr<GroundTruth> ground_truth_;
  std::unique_ptr<QueryEngine> pf_engine_;
  std::unique_ptr<QueryEngine> sm_engine_;
  std::unique_ptr<QueryEngine> sub_engine_;
  std::unique_ptr<SubscriptionManager> subscriptions_;

  persist::CheckpointManager checkpoint_;
  persist::PersistMetrics persist_metrics_;
  Status persist_status_;
  RecoveryReport recovery_report_;

  int64_t now_ = 0;
};

}  // namespace ipqs

#endif  // IPQS_SIM_SIMULATION_H_
