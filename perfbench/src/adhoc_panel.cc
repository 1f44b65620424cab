// adhoc_panel: the paper's Section 5 protocol on the Table 2 world. A round
// advances the world 10 s and then answers, one call at a time on the PF
// engine, 100 new random windows (2% area) and the epoch's fixed 30 kNN
// points (k = 3). Cold filter runs over the 10-s gap dominate.
//
// The kNN calls are spread evenly among the range calls. Whichever call
// first needs an object pays for its inference, so with the kNN calls last
// almost none of them would infer and their p99 would sit on the border
// between calls that infer and calls that do not.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "query/query_scheduler.h"
#include "sim/experiment.h"
#include "sim/metrics.h"

namespace perfbench {
namespace {

using ipqs::obs::MonotonicNanos;

constexpr uint64_t kStream = 0xAD0C;
// Short epochs put many worlds and kNN point sets into every run; the kNN
// p99 rests on the few points whose candidates need inference.
constexpr int kRoundsPerEpoch = 10;
constexpr int kStepsPerRound = 10;
constexpr int kWindowsPerRound = 100;
constexpr int kKnnPoints = 30;

bool SameRange(const ipqs::QueryResult& a, const ipqs::QueryResult& b) {
  return a.objects == b.objects && a.quality == b.quality &&
         a.coverage_degraded == b.coverage_degraded;
}

bool SameKnn(const ipqs::KnnResult& a, const ipqs::KnnResult& b) {
  return SameRange(a.result, b.result) &&
         a.anchors_searched == b.anchors_searched &&
         a.total_probability == b.total_probability;
}

class AdhocPanelLoop : public Loop {
 public:
  explicit AdhocPanelLoop(const LoopSetup& setup) : Loop(setup) {}

  const char* name() const override { return "adhoc_panel"; }
  std::string Params() const override {
    return "{\"objects\":" +
           std::to_string(TableTwoWorld(0).trace.num_objects) +
           ",\"steps_per_round\":" + std::to_string(kStepsPerRound) +
           ",\"windows_per_round\":" + std::to_string(kWindowsPerRound) +
           ",\"window_area\":" + std::to_string(kWindowAreaFraction) +
           ",\"knn_points\":" + std::to_string(kKnnPoints) +
           ",\"k\":" + std::to_string(kKnnK) +
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
    const Samples& s = samples_[0];
    const int64_t queries =
        static_cast<int64_t>(s.range_ms.size() + s.knn_ms.size());
    report->Add("query_qps",
                s.query_ns == 0 ? 0.0 : queries / Seconds(s.query_ns),
                "queries/s", queries);
    const int64_t nr = static_cast<int64_t>(s.range_ms.size());
    const int64_t nk = static_cast<int64_t>(s.knn_ms.size());
    report->Add("range_p50_ms", Quantile(s.range_ms, 0.5), "ms", nr);
    report->Add("range_p99_ms", Quantile(s.range_ms, 0.99), "ms", nr);
    report->Add("knn_p50_ms", Quantile(s.knn_ms, 0.5), "ms", nk);
    report->Add("knn_p99_ms", Quantile(s.knn_ms, 0.99), "ms", nk);
    report->Add("range_kl", kl_.Mean(), "nats", kl_.count());
    report->Add("knn_hit", hit_.Mean(), "ratio", hit_.count());
  }

  void PerLayer(Report* report) const override {
    EngineLayerMetrics(measured_, "pf", ledger_.rounds(),
                       TableTwoWorld(0).filter.num_particles, report);
  }

  double TracedLatency() const override {
    return Quantile(samples_[1].range_ms, 0.5);
  }
  double UntracedLatency() const override {
    return Quantile(samples_[0].range_ms, 0.5);
  }

 private:
  struct Samples {
    std::vector<double> range_ms;
    std::vector<double> knn_ms;
    int64_t query_ns = 0;
  };

  void StartEpoch() {
    ipqs::SimulationConfig config = TableTwoWorld(OpenEpoch(kStream));
    if (epoch_traced_) {
      config.metrics = &registry_;
      config.trace_recorder = recorder_.get();
    }
    const int64_t start = MonotonicNanos();
    auto sim_or = [&] {
      Ledger::Span span(EpochLedger(), "sim.create");
      return ipqs::Simulation::Create(config);
    }();
    tally_.Check(sim_or.ok(), "adhoc_panel: Simulation::Create failed");
    if (!sim_or.ok()) {
      done_ = true;
      return;
    }
    sim_ = std::move(*sim_or);
    knn_points_.clear();
    for (int i = 0; i < kKnnPoints; ++i) {
      knn_points_.push_back(ipqs::Experiment::RandomIndoorPoint(
          sim_->anchors(), sim_->query_rng()));
    }
    for (int s = 0; s < kWarmupSeconds; ++s) {
      sim_->Step();
    }
    RunRound(/*measured=*/false);  // The cold cache fill.
    EndSetup(start);
    rounds_in_epoch_ = 0;
  }

  void RunRound(bool measured) {
    Ledger* ledger = epoch_traced_ && measured ? &ledger_ : nullptr;
    if (ledger != nullptr) {
      ledger->BeginRound(round_id_);
    }
    for (int s = 0; s < kStepsPerRound; ++s) {
      Ledger::Span span(ledger, "sim.step");
      sim_->Step();
    }
    const int64_t now = sim_->now();
    last_windows_.clear();
    for (int i = 0; i < kWindowsPerRound; ++i) {
      last_windows_.push_back(ipqs::Experiment::RandomWindow(
          sim_->plan(), kWindowAreaFraction, sim_->query_rng()));
    }
    Samples& samples = samples_[epoch_traced_ ? 1 : 0];
    last_range_.clear();
    last_knn_.clear();
    // Range window i sits at (i + 0.5) / 100 of the round and kNN point j
    // at (j + 0.5) / 30; calls go out in that order.
    size_t r = 0;
    size_t k = 0;
    while (r < last_windows_.size() || k < knn_points_.size()) {
      const bool range_next =
          k == knn_points_.size() ||
          (r < last_windows_.size() &&
           (2 * r + 1) * knn_points_.size() <=
               (2 * k + 1) * last_windows_.size());
      const int64_t t0 = MonotonicNanos();
      if (range_next) {
        ipqs::QueryResult answer;
        {
          Ledger::Span span(ledger, "query.range");
          answer = sim_->pf_engine().EvaluateRange(last_windows_[r], now);
        }
        const int64_t dt = MonotonicNanos() - t0;
        if (measured) {
          samples.range_ms.push_back(Millis(dt));
          samples.query_ns += dt;
        }
        last_range_.push_back(std::move(answer));
        ++r;
      } else {
        ipqs::KnnResult answer;
        {
          Ledger::Span span(ledger, "query.knn");
          answer = sim_->pf_engine().EvaluateKnn(knn_points_[k], kKnnK, now);
        }
        const int64_t dt = MonotonicNanos() - t0;
        if (measured) {
          samples.knn_ms.push_back(Millis(dt));
          samples.query_ns += dt;
        }
        last_knn_.push_back(std::move(answer));
        ++k;
      }
    }
    if (ledger != nullptr) {
      ledger->EndRound();
    }
    ++round_id_;
    last_now_ = now;
    if (measured) {
      Score();
    }
  }

  // Quality against ground truth, outside the timed calls.
  void Score() {
    const auto& states = sim_->true_states();
    for (size_t i = 0; i < last_windows_.size(); ++i) {
      tally_.Check(last_range_[i].quality == ipqs::QualityLevel::kFull,
                   "adhoc_panel: range answer below kFull");
      const std::vector<ipqs::ObjectId> truth =
          ipqs::GroundTruth::RangeResult(states, last_windows_[i]);
      if (!truth.empty() && !epoch_traced_) {
        kl_.AddOptional(ipqs::RangeKlDivergence(truth, last_range_[i]));
      }
    }
    for (size_t i = 0; i < knn_points_.size(); ++i) {
      tally_.Check(last_knn_[i].result.quality == ipqs::QualityLevel::kFull,
                   "adhoc_panel: kNN answer below kFull");
      if (epoch_traced_) {
        continue;
      }
      const ipqs::GraphLocation loc = sim_->graph().NearestLocation(
          knn_points_[i], /*prefer_hallways=*/true);
      const std::vector<ipqs::ObjectId> truth =
          sim_->ground_truth().KnnResult(states, loc, kKnnK);
      if (!truth.empty()) {
        hit_.Add(ipqs::KnnHitRate(last_knn_[i].result, truth, kKnnK,
                                  /*top_k_only=*/false));
      }
    }
  }

  void EndEpoch() {
    StopMeasuring();
    // The last round's panel, re-answered as one batch on the same engine
    // at the same `now`, must match the serial answers byte for byte.
    std::vector<ipqs::BatchQuery> batch;
    for (const ipqs::Rect& window : last_windows_) {
      batch.push_back(ipqs::BatchQuery::Range(window));
    }
    for (const ipqs::Point& point : knn_points_) {
      batch.push_back(ipqs::BatchQuery::Knn(point, kKnnK));
    }
    ipqs::QueryScheduler scheduler(&sim_->pf_engine());
    std::vector<ipqs::BatchAnswer> answers;
    {
      Ledger::Span span(EpochLedger(), "query.batch_check");
      answers = scheduler.EvaluateBatch(batch, last_now_);
    }
    for (size_t i = 0; i < last_range_.size(); ++i) {
      tally_.Check(SameRange(answers[i].range, last_range_[i]),
                   "adhoc_panel: batched range answer differs from serial");
    }
    for (size_t i = 0; i < last_knn_.size(); ++i) {
      tally_.Check(
          SameKnn(answers[last_range_.size() + i].knn, last_knn_[i]),
          "adhoc_panel: batched kNN answer differs from serial");
    }
    sim_.reset();
    CloseEpoch();
  }

  int rounds_in_epoch_ = 0;
  int64_t round_id_ = 0;

  std::unique_ptr<ipqs::Simulation> sim_;
  std::vector<ipqs::Point> knn_points_;
  int64_t last_now_ = 0;
  std::vector<ipqs::Rect> last_windows_;
  std::vector<ipqs::QueryResult> last_range_;
  std::vector<ipqs::KnnResult> last_knn_;

  Samples samples_[2];  // [0] untraced epochs, [1] traced epochs.
  ipqs::MeanAccumulator kl_;
  ipqs::MeanAccumulator hit_;
};

}  // namespace

std::unique_ptr<Loop> MakeAdhocPanelLoop(const LoopSetup& setup) {
  return std::make_unique<AdhocPanelLoop>(setup);
}

}  // namespace perfbench
