// standing: the same world and warm-up, with 128 standing subscriptions
// (64 range windows of 2% area, 64 kNN points with k = 3) on the
// benchmark's own SubscriptionManager over a dedicated PF engine. A round is
// one Simulation::Step and then one SubscriptionManager::Tick, timed apart.
// Each tick resumes cached states that are 1 s old, so the fixed cost per
// inference and the scheduler's candidate sharing carry the load.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "query/query_scheduler.h"
#include "obs/explain.h"
#include "query/subscription.h"
#include "sim/experiment.h"
#include "sim/metrics.h"

namespace perfbench {
namespace {

using ipqs::obs::MonotonicNanos;

constexpr uint64_t kStream = 0x5AB5;
// Short epochs put many worlds into every run: the tick tail comes from the
// few seconds with many hand-offs, which differ from world to world.
constexpr int kRoundsPerEpoch = 50;
constexpr int kRangeSubs = 64;
constexpr int kKnnSubs = 64;
// Quality is scored on every kScoreEvery-th tick (a fixed sample).
constexpr int kScoreEvery = 10;
constexpr size_t kChangeLogCapacity = 65536;

bool SameAnswer(const ipqs::BatchAnswer& a, const ipqs::BatchAnswer& b) {
  if (a.kind != b.kind) {
    return false;
  }
  const auto same = [](const ipqs::QueryResult& x, const ipqs::QueryResult& y) {
    return x.objects == y.objects && x.quality == y.quality &&
           x.coverage_degraded == y.coverage_degraded;
  };
  if (a.kind == ipqs::BatchQuery::Kind::kRange) {
    return same(a.range, b.range);
  }
  return same(a.knn.result, b.knn.result) &&
         a.knn.anchors_searched == b.knn.anchors_searched &&
         a.knn.total_probability == b.knn.total_probability;
}

class StandingLoop : public Loop {
 public:
  explicit StandingLoop(const LoopSetup& setup) : Loop(setup) {}

  const char* name() const override { return "standing"; }
  std::string Params() const override {
    return "{\"objects\":" +
           std::to_string(TableTwoWorld(0).trace.num_objects) +
           ",\"range_subs\":" + std::to_string(kRangeSubs) +
           ",\"knn_subs\":" + std::to_string(kKnnSubs) +
           ",\"window_area\":" + std::to_string(kWindowAreaFraction) +
           ",\"k\":" + std::to_string(kKnnK) +
           ",\"score_every\":" + std::to_string(kScoreEvery) +
           ",\"rounds_per_epoch\":" +
           std::to_string(RoundsPerEpoch(kRoundsPerEpoch)) + "}";
  }

  void Advance() override {
    if (sim_ == nullptr) {
      StartEpoch();
      return;
    }
    RunRound(/*measured=*/true);
    if (++rounds_in_epoch_ >= RoundsPerEpoch(kRoundsPerEpoch)) {
      EndEpoch();
    }
  }

  void Rewarm() override {
    if (sim_ != nullptr) {
      RunRound(/*measured=*/false);
    }
  }

  void Finish() override {
    if (sim_ != nullptr) {
      EndEpoch();
    }
  }

  void EndToEnd(Report* report) const override {
    const std::vector<double>& ticks = tick_ms_[0];
    const int64_t n = static_cast<int64_t>(ticks.size());
    report->Add("tick_p50_ms", Quantile(ticks, 0.5), "ms", n);
    report->Add("tick_p99_ms", Quantile(ticks, 0.99), "ms", n);
    report->Add("range_kl", kl_.Mean(), "nats", kl_.count());
    report->Add("knn_hit", hit_.Mean(), "ratio", hit_.count());
  }

  void PerLayer(Report* report) const override {
    const int64_t ticks = ledger_.rounds();
    const auto per_tick_ms = [&](int64_t ns) {
      return ticks == 0 ? 0.0 : Millis(ns) / static_cast<double>(ticks);
    };
    // The engine's prune/evaluate histograms stay empty on the batched
    // path; the explain records' batch stage walls stand in for them.
    Report engine;
    EngineLayerMetrics(measured_, "subq", ticks,
                       TableTwoWorld(0).filter.num_particles, &engine);
    for (const Metric& m : engine.metrics()) {
      const double value = m.name == "query.prune_ms" ? per_tick_ms(batch_prune_ns_)
                           : m.name == "query.evaluate_ms"
                               ? per_tick_ms(batch_evaluate_ns_)
                               : m.value;
      report->Add(m.name, value, m.unit, m.samples);
    }
    const double slots =
        static_cast<double>(measured_.Counter("subq.qps.candidate_slots"));
    const double unique =
        static_cast<double>(measured_.Counter("subq.qps.unique_candidates"));
    report->Add("query.sched_share", slots == 0 ? 0.0 : unique / slots,
                "ratio", measured_.Counter("subq.qps.batches"));
    const double dirty = static_cast<double>(measured_.Counter("sub.dirty"));
    const double skipped =
        static_cast<double>(measured_.Counter("sub.evals_skipped"));
    report->Add("query.sub_dirty",
                dirty + skipped == 0 ? 0.0 : dirty / (dirty + skipped),
                "ratio", static_cast<int64_t>(dirty + skipped));
    // Tick wall time not spent in the engine's stages: dirty tracking,
    // delta algebra, explain records and the scheduler's bookkeeping.
    const int64_t stage_ns = batch_prune_ns_ + batch_evaluate_ns_ +
                             measured_.HistSum("subq.stage.infer_ns") +
                             measured_.HistSum("subq.stage.merge_ns");
    const auto it = ledger_.totals().find("query.tick");
    const int64_t tick_ns = it == ledger_.totals().end() ? 0 : it->second.total_ns;
    report->Add("query.sub_track_ms", per_tick_ms(tick_ns - stage_ns), "ms",
                ticks);
  }

  double TracedLatency() const override { return Quantile(tick_ms_[1], 0.5); }
  double UntracedLatency() const override {
    return Quantile(tick_ms_[0], 0.5);
  }

 private:
  void StartEpoch() {
    const uint64_t seed = OpenEpoch(kStream);
    ipqs::SimulationConfig config = TableTwoWorld(seed);
    config.collector.change_log_capacity = kChangeLogCapacity;

    const int64_t start = MonotonicNanos();
    auto sim_or = [&] {
      Ledger::Span span(EpochLedger(), "sim.create");
      return ipqs::Simulation::Create(config);
    }();
    tally_.Check(sim_or.ok(), "standing: Simulation::Create failed");
    if (!sim_or.ok()) {
      done_ = true;
      return;
    }
    sim_ = std::move(*sim_or);
    ipqs::EngineConfig engine_config;
    engine_config.method = ipqs::InferenceMethod::kParticleFilter;
    engine_config.filter = config.filter;
    engine_config.symbolic = config.symbolic;
    engine_config.max_speed = config.max_speed;
    engine_config.use_pruning = config.use_pruning;
    engine_config.use_cache = config.use_cache;
    engine_config.use_distance_index = config.use_distance_index;
    engine_config.seed = seed + 4;
    engine_config.metrics_prefix = "subq";
    if (epoch_traced_) {
      engine_config.metrics = &registry_;
      engine_config.trace = recorder_.get();
    }
    engine_ = std::make_unique<ipqs::QueryEngine>(
        &sim_->graph(), &sim_->plan(), &sim_->anchors(), &sim_->anchor_graph(),
        &sim_->deployment(), &sim_->deployment_graph(), &sim_->collector(),
        engine_config);
    ipqs::SubscriptionManagerConfig manager_config;
    manager_config.metrics = epoch_traced_ ? &registry_ : nullptr;
    manager_ = std::make_unique<ipqs::SubscriptionManager>(engine_.get(),
                                                           manager_config);
    for (int s = 0; s < kWarmupSeconds; ++s) {
      sim_->Step();
    }
    ipqs::Rng rng = ipqs::Rng::ForStream(seed, kStream, 1);
    ids_.clear();
    queries_.clear();
    for (int i = 0; i < kRangeSubs; ++i) {
      const ipqs::Rect window = ipqs::Experiment::RandomWindow(
          sim_->plan(), kWindowAreaFraction, rng);
      const ipqs::SubscriptionId id = manager_->AddRange(window);
      ids_.push_back(id);
      queries_[id] = ipqs::BatchQuery::Range(window);
    }
    for (int i = 0; i < kKnnSubs; ++i) {
      const ipqs::Point point =
          ipqs::Experiment::RandomIndoorPoint(sim_->anchors(), rng);
      const ipqs::SubscriptionId id = manager_->AddKnn(point, kKnnK);
      ids_.push_back(id);
      queries_[id] = ipqs::BatchQuery::Knn(point, kKnnK);
    }
    RunRound(/*measured=*/false);  // The first full tick.
    EndSetup(start);
    rounds_in_epoch_ = 0;
  }

  void RunRound(bool measured) {
    Ledger* ledger = epoch_traced_ && measured ? &ledger_ : nullptr;
    if (ledger != nullptr) {
      ledger->BeginRound(round_id_);
    }
    {
      Ledger::Span span(ledger, "sim.step");
      sim_->Step();
    }
    const int64_t now = sim_->now();
    const int64_t t0 = MonotonicNanos();
    {
      Ledger::Span span(ledger, "query.tick");
      if (ledger != nullptr) {
        // The batched path times its prune and evaluate stages only in
        // explain records (one per evaluated subscription, each carrying
        // the whole batch's stage walls).
        std::vector<ipqs::obs::QueryExplain> explains;
        manager_->Tick(now, &explains);
        if (!explains.empty()) {
          batch_prune_ns_ += explains.front().prune_ns;
          batch_evaluate_ns_ += explains.front().evaluate_ns;
        }
      } else {
        manager_->Tick(now);
      }
    }
    const int64_t dt = MonotonicNanos() - t0;
    if (ledger != nullptr) {
      ledger->EndRound();
    }
    ++round_id_;
    if (measured) {
      tick_ms_[epoch_traced_ ? 1 : 0].push_back(Millis(dt));
      if (rounds_in_epoch_ % kScoreEvery == 0) {
        Score();
      }
    }
  }

  // Quality of the standing answers against ground truth, outside the
  // timed calls.
  void Score() {
    const auto& states = sim_->true_states();
    for (const ipqs::SubscriptionId id : ids_) {
      const ipqs::BatchAnswer& answer = manager_->Answer(id);
      if (answer.kind == ipqs::BatchQuery::Kind::kRange) {
        tally_.Check(answer.range.quality == ipqs::QualityLevel::kFull,
                     "standing: range answer below kFull");
        if (epoch_traced_) {
          continue;
        }
        const std::vector<ipqs::ObjectId> truth =
            ipqs::GroundTruth::RangeResult(states, Window(id));
        if (!truth.empty()) {
          kl_.AddOptional(ipqs::RangeKlDivergence(truth, answer.range));
        }
      } else {
        tally_.Check(answer.knn.result.quality == ipqs::QualityLevel::kFull,
                     "standing: kNN answer below kFull");
        if (epoch_traced_) {
          continue;
        }
        const ipqs::GraphLocation loc = sim_->graph().NearestLocation(
            KnnPoint(id), /*prefer_hallways=*/true);
        const std::vector<ipqs::ObjectId> truth =
            sim_->ground_truth().KnnResult(states, loc, kKnnK);
        if (!truth.empty()) {
          hit_.Add(ipqs::KnnHitRate(answer.knn.result, truth, kKnnK,
                                    /*top_k_only=*/false));
        }
      }
    }
  }

  const ipqs::Rect& Window(ipqs::SubscriptionId id) const {
    return queries_.at(id).window;
  }
  const ipqs::Point& KnnPoint(ipqs::SubscriptionId id) const {
    return queries_.at(id).point;
  }

  void EndEpoch() {
    StopMeasuring();
    // After the last tick every cached answer must equal a fresh batch
    // evaluation at that tick on the same engine.
    std::vector<ipqs::BatchQuery> batch;
    for (const ipqs::SubscriptionId id : ids_) {
      batch.push_back(queries_.at(id));
    }
    ipqs::QueryScheduler scheduler(engine_.get());
    std::vector<ipqs::BatchAnswer> fresh;
    {
      Ledger::Span span(EpochLedger(), "query.batch_check");
      fresh = scheduler.EvaluateBatch(batch, manager_->last_tick_time());
    }
    for (size_t i = 0; i < ids_.size(); ++i) {
      tally_.Check(SameAnswer(manager_->Answer(ids_[i]), fresh[i]),
                   "standing: subscription answer differs from a fresh batch");
    }
    manager_.reset();
    engine_.reset();
    sim_.reset();
    CloseEpoch();
  }

  int rounds_in_epoch_ = 0;
  int64_t round_id_ = 0;

  std::unique_ptr<ipqs::Simulation> sim_;
  std::unique_ptr<ipqs::QueryEngine> engine_;
  std::unique_ptr<ipqs::SubscriptionManager> manager_;
  std::vector<ipqs::SubscriptionId> ids_;
  std::map<ipqs::SubscriptionId, ipqs::BatchQuery> queries_;

  std::vector<double> tick_ms_[2];  // [0] untraced epochs, [1] traced.
  int64_t batch_prune_ns_ = 0;     // Traced measured ticks.
  int64_t batch_evaluate_ns_ = 0;
  ipqs::MeanAccumulator kl_;
  ipqs::MeanAccumulator hit_;
};

}  // namespace

std::unique_ptr<Loop> MakeStandingLoop(const LoopSetup& setup) {
  return std::make_unique<StandingLoop>(setup);
}

}  // namespace perfbench
