#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "sim/experiment.h"

namespace ipqs {

Simulation::Simulation(const SimulationConfig& config)
    : config_(config), world_rng_(config.seed), query_rng_(config.seed + 1) {}

StatusOr<std::unique_ptr<Simulation>> Simulation::Create(
    const SimulationConfig& config) {
  std::unique_ptr<Simulation> sim(new Simulation(config));
  IPQS_RETURN_IF_ERROR(sim->Init());
  return sim;
}

Status Simulation::Init() {
  if (config_.custom_plan.has_value()) {
    plan_ = *config_.custom_plan;
    IPQS_RETURN_IF_ERROR(plan_.Validate());
  } else {
    IPQS_ASSIGN_OR_RETURN(plan_, GenerateOffice(config_.office));
  }
  IPQS_ASSIGN_OR_RETURN(graph_, BuildWalkingGraph(plan_));

  anchors_ = std::make_unique<AnchorPointIndex>(
      AnchorPointIndex::Build(graph_, plan_, config_.anchor_spacing));
  anchor_graph_ =
      std::make_unique<AnchorGraph>(AnchorGraph::Build(graph_, *anchors_));

  if (!config_.custom_readers.empty()) {
    for (const ReaderSpec& spec : config_.custom_readers) {
      deployment_.AddReader(graph_, spec.pos, spec.range);
    }
  } else {
    IPQS_ASSIGN_OR_RETURN(
        deployment_,
        Deployment::UniformOnHallways(plan_, graph_, config_.num_readers,
                                      config_.activation_range));
  }
  deployment_graph_ = std::make_unique<DeploymentGraph>(
      DeploymentGraph::Build(*anchors_, *anchor_graph_, deployment_));

  if (config_.num_subscriptions > 0 &&
      config_.collector.change_log_capacity == 0) {
    // The subscription manager's dirty tracking drains the collector's
    // change log; size it to comfortably hold several poll intervals of
    // readings (overflow is safe — the manager falls back to evaluating
    // everything — just slow).
    config_.collector.change_log_capacity = 65536;
  }
  collector_.SetConfig(config_.collector);
  if (config_.faults.Enabled()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults,
                                                deployment_.num_readers());
  }
  if (config_.health.enabled) {
    health_ = std::make_unique<ReaderHealthMonitor>(
        config_.health, &collector_, deployment_.num_readers());
  }

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    CollectorMetrics cm;
    cm.readings = reg.GetCounter("collector.readings");
    cm.entries = reg.GetCounter("collector.entries");
    cm.handoffs = reg.GetCounter("collector.handoffs");
    cm.events = reg.GetCounter("collector.events");
    cm.objects = reg.GetGauge("collector.objects");
    cm.reordered = reg.GetCounter("collector.reordered");
    cm.duplicates_dropped = reg.GetCounter("collector.duplicates_dropped");
    cm.late_dropped = reg.GetCounter("collector.late_dropped");
    collector_.SetMetrics(cm);
    if (injector_ != nullptr) {
      FaultMetrics fm;
      fm.injected = reg.GetCounter("faults.injected");
      fm.dropped = reg.GetCounter("faults.dropped");
      fm.duplicated = reg.GetCounter("faults.duplicated");
      fm.delayed = reg.GetCounter("faults.delayed");
      fm.ghosts = reg.GetCounter("faults.ghosts");
      fm.skewed = reg.GetCounter("faults.skewed");
      injector_->SetMetrics(fm);
    }
    if (health_ != nullptr) {
      ReaderHealthMetrics hm;
      hm.transitions = reg.GetCounter("health.transitions");
      hm.suspect_transitions = reg.GetCounter("health.suspect_transitions");
      hm.dead_transitions = reg.GetCounter("health.dead_transitions");
      hm.recovered_transitions =
          reg.GetCounter("health.recovered_transitions");
      hm.probation_reads = reg.GetCounter("health.probation_reads");
      hm.reader_down_seconds = reg.GetCounter("health.reader_down_seconds");
      hm.reader_seconds = reg.GetCounter("health.reader_seconds");
      hm.degraded_readers = reg.GetGauge("health.degraded_readers");
      health_->SetMetrics(hm);
    }
  }

  trace_ = std::make_unique<TraceGenerator>(&graph_, &plan_, config_.trace,
                                            &world_rng_);
  readings_ = std::make_unique<ReadingGenerator>(
      &deployment_, SensingModel(config_.sensing), &world_rng_);
  ground_truth_ = std::make_unique<GroundTruth>(&graph_);

  EngineConfig pf_config;
  pf_config.method = InferenceMethod::kParticleFilter;
  pf_config.filter = config_.filter;
  pf_config.symbolic = config_.symbolic;
  pf_config.max_speed = config_.max_speed;
  pf_config.use_pruning = config_.use_pruning;
  pf_config.use_cache = config_.use_cache;
  pf_config.use_distance_index = config_.use_distance_index;
  pf_config.use_distance_oracle = config_.use_distance_oracle;
  pf_config.num_threads = config_.num_threads;
  pf_config.deadline_ms = config_.deadline_ms;
  pf_config.degrade = config_.degrade;
  pf_config.seed = config_.seed + 2;
  pf_config.metrics = config_.metrics;
  pf_config.metrics_prefix = "pf";
  pf_config.trace = config_.trace_recorder;
  // Both engines (and the subscription engine, whose config copies this
  // one) read the same monitor, so every serving path agrees on health.
  pf_config.health = health_.get();
  pf_engine_ = std::make_unique<QueryEngine>(
      &graph_, &plan_, anchors_.get(), anchor_graph_.get(), &deployment_,
      deployment_graph_.get(), &collector_, pf_config);

  EngineConfig sm_config = pf_config;
  sm_config.method = config_.baseline_method;
  sm_config.seed = config_.seed + 3;
  sm_config.metrics_prefix = "sm";
  sm_engine_ = std::make_unique<QueryEngine>(
      &graph_, &plan_, anchors_.get(), anchor_graph_.get(), &deployment_,
      deployment_graph_.get(), &collector_, sm_config);

  if (config_.num_subscriptions > 0) {
    IPQS_CHECK_GT(config_.sub_poll_interval_seconds, 0);
    // Dedicated engine: the subscription path must never touch the pf/sm
    // caches or registries, so standing queries cannot perturb ad-hoc
    // answers. Deadline 0: a standing query never degrades.
    EngineConfig sub_config = pf_config;
    sub_config.deadline_ms = 0;
    sub_config.metrics = nullptr;  // Private registry (see EngineConfig).
    sub_config.metrics_prefix = "subq";
    sub_config.trace = nullptr;
    sub_engine_ = std::make_unique<QueryEngine>(
        &graph_, &plan_, anchors_.get(), anchor_graph_.get(), &deployment_,
        deployment_graph_.get(), &collector_, sub_config);
    SubscriptionManagerConfig sm_cfg;
    sm_cfg.incremental = config_.sub_incremental;
    sm_cfg.metrics = config_.metrics;
    subscriptions_ = std::make_unique<SubscriptionManager>(sub_engine_.get(),
                                                           sm_cfg);
    // A dedicated stream, so adding subscriptions moves no world/query
    // draw and the registered set is a pure function of the seed.
    Rng sub_rng = Rng::ForStream(config_.seed, /*stream=*/0x53554253, 0);
    const int num_range = static_cast<int>(
        std::ceil(config_.sub_range_fraction *
                  static_cast<double>(config_.num_subscriptions)));
    for (int i = 0; i < config_.num_subscriptions; ++i) {
      if (i < num_range) {
        subscriptions_->AddRange(Experiment::RandomWindow(
            plan_, config_.sub_window_area_fraction, sub_rng));
      } else {
        subscriptions_->AddKnn(
            Experiment::RandomIndoorPoint(*anchors_, sub_rng), config_.sub_k);
      }
    }
  }

  if (!config_.persist.dir.empty()) {
    persist_metrics_ = persist::PersistMetrics::FromRegistry(config_.metrics);
    if (config_.persist_recover) {
      IPQS_RETURN_IF_ERROR(RecoverServingState());
    } else {
      IPQS_RETURN_IF_ERROR(checkpoint_.OpenFresh(config_.persist,
                                                 persist_metrics_, now_));
    }
  } else if (config_.persist_recover) {
    return Status::InvalidArgument(
        "persist_recover requires persist.dir to be set");
  }

  return Status::Ok();
}

persist::SnapshotData Simulation::BuildSnapshot() const {
  persist::SnapshotData data;
  data.now = now_;
  data.collector = collector_.ExportState();
  data.history = history_.ExportState();
  data.pf_cache = pf_engine_->ExportCacheEntries();
  return data;
}

Status Simulation::RecoverServingState() {
  IPQS_ASSIGN_OR_RETURN(
      persist::Recovered recovered,
      persist::CheckpointManager::Recover(config_.persist, persist_metrics_));
  const int64_t replay_start = obs::MonotonicNanos();
  if (recovered.have_snapshot) {
    collector_.RestoreState(std::move(recovered.snapshot.collector));
    history_.RestoreState(std::move(recovered.snapshot.history));
    pf_engine_->RestoreCacheEntries(std::move(recovered.snapshot.pf_cache));
    now_ = recovered.snapshot.now;
  }
  // The WAL tail goes back through the exact ingestion path live readings
  // took — Observe per reading, Flush per second — so hand-off handling,
  // duplicate suppression, and watermark advancement all replay as they
  // originally ran.
  for (const persist::WalRecord& record : recovered.wal_tail) {
    for (const RawReading& r : record.readings) {
      collector_.Observe(r);
      history_.Observe(r);
    }
    collector_.Flush(record.time);
    now_ = record.time;
  }
  // Neither the snapshot nor the WAL holds heartbeats, so the restored
  // liveness ring knows only the replayed readings. Re-mark every second
  // it retains with the heartbeats Step noted; otherwise negative
  // information would treat the silence of up-but-tagless readers as
  // uninformative and recovered answers would differ. A reader's up/down
  // state is drawn per fault epoch (FaultPlan::ReaderDownAt), so the up
  // set is drawn once per epoch, not once per second.
  const int64_t first =
      std::max<int64_t>(1, now_ - DataCollector::kLivenessWindowSeconds);
  const int64_t epoch = std::max(config_.faults.dropout_epoch_seconds, 1);
  std::vector<ReaderId> up;
  for (int64_t second = first; second <= now_; ++second) {
    if (second == first || second % epoch == 0) {
      up = UpReaders(second);
    }
    collector_.MarkReadersLive(up, second);
  }
  recovery_report_.recovered = true;
  recovery_report_.from_snapshot = recovered.have_snapshot;
  recovery_report_.snapshot_time = recovered.snapshot_time;
  recovery_report_.wal_records_replayed = recovered.wal_tail.size();
  recovery_report_.corrupt_snapshots_skipped =
      recovered.corrupt_snapshots_skipped;
  recovery_report_.wal_tails_truncated = recovered.wal_tails_truncated;
  recovery_report_.replay_ns = obs::MonotonicNanos() - replay_start;
  if (persist_metrics_.recovery_replay_ns != nullptr) {
    persist_metrics_.recovery_replay_ns->Observe(recovery_report_.replay_ns);
  }
  return checkpoint_.OpenAfterRecover(config_.persist, persist_metrics_,
                                      recovered);
}

std::vector<ReaderId> Simulation::UpReaders(int64_t second) const {
  std::vector<ReaderId> up;
  up.reserve(deployment_.num_readers());
  for (ReaderId r = 0; r < deployment_.num_readers(); ++r) {
    if (injector_ == nullptr || !injector_->ReaderDown(r, second)) {
      up.push_back(r);
    }
  }
  return up;
}

Status Simulation::CheckpointNow() {
  if (!checkpoint_.is_open()) {
    return Status::FailedPrecondition("persistence not enabled");
  }
  return checkpoint_.WriteSnapshot(BuildSnapshot());
}

void Simulation::Step() {
  ++now_;
  trace_->Tick();
  std::vector<RawReading> batch = readings_->Generate(trace_->states(), now_);
  if (injector_ != nullptr) {
    batch = injector_->Deliver(std::move(batch), now_);
  }
  // Reader status heartbeats: every reader that is up reports once per
  // second, tags in range or not; a reader in a down epoch reports
  // nothing. Missed heartbeats give the health monitor an unambiguous
  // failure signal that tag-read silence (objects simply elsewhere) is not.
  for (ReaderId r : UpReaders(now_)) {
    collector_.NoteReaderHeartbeat(r, now_);
  }
  for (const RawReading& r : batch) {
    collector_.Observe(r);
    history_.Observe(r);
  }
  collector_.Flush(now_);
  // Health verdicts update after the second's ingest settles and before
  // anything queries: subscriptions and ad-hoc queries this second already
  // see the transition.
  if (health_ != nullptr) {
    health_->Tick(now_);
  }

  if (checkpoint_.is_open() && persist_status_.ok()) {
    // Log exactly what the collector consumed (post fault injection), one
    // record per second even when empty, so replay re-drives the same
    // Flush schedule and the recovered clock lands on this second.
    persist::WalRecord record;
    record.time = now_;
    record.readings = std::move(batch);
    persist_status_ = checkpoint_.AppendWal(record);
    if (persist_status_.ok() && config_.persist.snapshot_interval_seconds > 0 &&
        now_ % config_.persist.snapshot_interval_seconds == 0) {
      persist_status_ = checkpoint_.WriteSnapshot(BuildSnapshot());
    }
  }

  if (subscriptions_ != nullptr &&
      now_ % config_.sub_poll_interval_seconds == 0) {
    subscriptions_->Tick(now_);
  }

  // Time-series sampling last, so the sample sees everything this second
  // did (ingest counters, query work issued between Steps is attributed to
  // the following second's sample).
  if (config_.sampler != nullptr) {
    config_.sampler->Sample(now_);
  }
}

void Simulation::Run(int seconds) {
  IPQS_CHECK_GE(seconds, 0);
  for (int i = 0; i < seconds; ++i) {
    Step();
  }
}

}  // namespace ipqs
