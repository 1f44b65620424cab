// Reader-health suite (src/health/): the monitor's hysteresis state
// machine as a pure function of the per-reader ingest counts, the
// transition log's cursor contract, the silence-trust bridge into the
// measurement model, coverage_degraded annotations on answers, and the
// acceptance criteria — detection latency against the injected ground
// truth and zero false transitions on a clean run. Labeled `health` in
// ctest; CI runs it under ASan/UBSan and TSan.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.h"
#include "filter/particle_filter.h"
#include "health/reader_health.h"
#include "query/query_engine.h"
#include "query/query_scheduler.h"
#include "rfid/data_collector.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// ---------------------------------------------------------------------------
// Monitor state machine against a hand-fed collector.

ReaderHealthConfig TightConfig() {
  ReaderHealthConfig config;
  config.enabled = true;
  config.warmup_seconds = 4;
  config.suspect_after_seconds = 2;
  config.dead_after_seconds = 5;
  config.probation_seconds = 2;
  config.anomaly_suspect_count = 2;
  return config;
}

// Drives a collector + monitor pair one simulated second at a time:
// Feed() stages readings for the CURRENT second, Tick() ingests them and
// evaluates the monitor, exactly like Simulation::Step does.
class MonitorHarness {
 public:
  MonitorHarness(const ReaderHealthConfig& config, int num_readers)
      : monitor_(config, &collector_, num_readers) {}

  void Feed(ReaderId reader, int count = 1) {
    for (int i = 0; i < count; ++i) {
      RawReading reading;
      reading.object = static_cast<ObjectId>(i);
      reading.reader = reader;
      reading.time = now_ + 1;
      collector_.Observe(reading);
    }
  }

  int64_t Tick() {
    ++now_;
    collector_.Flush(now_);
    monitor_.Tick(now_);
    return now_;
  }

  int64_t now() const { return now_; }
  const DataCollector& collector() const { return collector_; }
  const ReaderHealthMonitor& monitor() const { return monitor_; }
  ReaderHealthMonitor* mutable_monitor() { return &monitor_; }

 private:
  DataCollector collector_;
  ReaderHealthMonitor monitor_;
  int64_t now_ = 0;
};

TEST(HealthMonitor, WarmupNeverTransitions) {
  MonitorHarness h(TightConfig(), 2);
  // Reader 1 silent through the whole warmup: no verdicts yet.
  for (int t = 0; t < 4; ++t) {
    h.Feed(0);
    h.Tick();
  }
  EXPECT_EQ(h.monitor().stats().Total(), 0);
  EXPECT_EQ(h.monitor().StateOf(1), ReaderHealth::kHealthy);
  EXPECT_EQ(h.monitor().transition_end(), 0u);
}

TEST(HealthMonitor, SilentReaderGoesSuspectThenDead) {
  MonitorHarness h(TightConfig(), 2);
  for (int t = 0; t < 4; ++t) {  // Warmup: both readers at 1 read/sec.
    h.Feed(0);
    h.Feed(1);
    h.Tick();
  }
  EXPECT_DOUBLE_EQ(h.monitor().BaselineRate(0), 1.0);
  EXPECT_EQ(h.monitor().SuspectWindow(0), 2);  // No warmup gaps.

  // Reader 0 dies; reader 1 keeps reporting.
  int64_t suspect_at = -1;
  int64_t dead_at = -1;
  for (int t = 0; t < 10; ++t) {
    h.Feed(1);
    const int64_t now = h.Tick();
    if (suspect_at < 0 && h.monitor().StateOf(0) == ReaderHealth::kSuspect) {
      suspect_at = now;
    }
    if (dead_at < 0 && h.monitor().StateOf(0) == ReaderHealth::kDead) {
      dead_at = now;
    }
  }
  // Silent run hits the 2s window two ticks after death, the 5s dead
  // threshold five ticks after.
  EXPECT_EQ(suspect_at, 6);
  EXPECT_EQ(dead_at, 9);
  EXPECT_EQ(h.monitor().stats().suspect, 1);
  EXPECT_EQ(h.monitor().stats().dead, 1);
  EXPECT_EQ(h.monitor().StateOf(1), ReaderHealth::kHealthy);

  // The transition log recorded both, in order, with the right endpoints.
  std::vector<ReaderHealthTransition> log;
  bool lost = false;
  const uint64_t cursor = h.monitor().ReadTransitions(0, &log, &lost);
  EXPECT_FALSE(lost);
  EXPECT_EQ(cursor, 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].reader, 0);
  EXPECT_EQ(log[0].from, ReaderHealth::kHealthy);
  EXPECT_EQ(log[0].to, ReaderHealth::kSuspect);
  EXPECT_EQ(log[0].time, suspect_at);
  EXPECT_EQ(log[1].to, ReaderHealth::kDead);
  EXPECT_EQ(log[1].time, dead_at);
}

TEST(HealthMonitor, DeadReaderRecoversThroughProbation) {
  MonitorHarness h(TightConfig(), 1);
  for (int t = 0; t < 4; ++t) {
    h.Feed(0);
    h.Tick();
  }
  for (int t = 0; t < 5; ++t) {
    h.Tick();  // Silence through suspect into dead.
  }
  ASSERT_EQ(h.monitor().StateOf(0), ReaderHealth::kDead);

  // First reading moves it to probation; readings are accepted (flagged),
  // and probation_seconds consecutive active seconds promote it.
  h.Feed(0);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kProbation);
  EXPECT_TRUE(h.monitor().view().SilenceTrusted(0));
  EXPECT_TRUE(h.monitor().view().Degraded(0));  // Still flagged on answers.
  h.Feed(0);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kProbation);
  h.Feed(0);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kHealthy);
  EXPECT_EQ(h.monitor().stats().recovered, 1);
  EXPECT_FALSE(h.monitor().view().AnyDegraded());
}

TEST(HealthMonitor, ProbationRelapsesOnRenewedSilence) {
  MonitorHarness h(TightConfig(), 1);
  for (int t = 0; t < 4; ++t) {
    h.Feed(0);
    h.Tick();
  }
  for (int t = 0; t < 2; ++t) {
    h.Tick();
  }
  ASSERT_EQ(h.monitor().StateOf(0), ReaderHealth::kSuspect);
  h.Feed(0);
  h.Tick();
  ASSERT_EQ(h.monitor().StateOf(0), ReaderHealth::kProbation);
  // One active second is not enough; renewed silence relapses to suspect
  // once the window fills again.
  h.Tick();
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kSuspect);
  EXPECT_EQ(h.monitor().stats().suspect, 2);
}

TEST(HealthMonitor, QuietBaselineReaderNeverTripsTheSilenceDetector) {
  MonitorHarness h(TightConfig(), 2);
  // Reader 1 never reports at all: its baseline is 0 < min_baseline_rate,
  // so its silence is indistinguishable from quiet coverage and the
  // monitor must not false-positive it — ever.
  for (int t = 0; t < 40; ++t) {
    h.Feed(0);
    h.Tick();
  }
  EXPECT_EQ(h.monitor().StateOf(1), ReaderHealth::kHealthy);
  EXPECT_EQ(h.monitor().stats().Total(), 0);
}

TEST(HealthMonitor, BurstyWarmupWidensTheSuspectWindow) {
  ReaderHealthConfig config = TightConfig();
  config.warmup_seconds = 6;
  MonitorHarness h(config, 1);
  // Reads at t=1 and t=4 only: longest warmup gap is 2 silent seconds, so
  // the effective window is max(2, ceil(2.0 * 2) + 1) = 5 — a gap the
  // reader exhibited while provably healthy must not kill it later.
  for (int t = 1; t <= 6; ++t) {
    if (t == 1 || t == 4) {
      h.Feed(0);
    }
    h.Tick();
  }
  EXPECT_EQ(h.monitor().SuspectWindow(0), 5);
  ASSERT_GE(h.monitor().BaselineRate(0), config.min_baseline_rate);

  int64_t suspect_at = -1;
  for (int t = 0; t < 8; ++t) {
    const int64_t now = h.Tick();
    if (suspect_at < 0 && h.monitor().StateOf(0) == ReaderHealth::kSuspect) {
      suspect_at = now;
    }
  }
  EXPECT_EQ(suspect_at, 11);  // Five silent seconds past warmup, not two.
}

TEST(HealthMonitor, GhostBurstMarksAnActiveReaderSuspect) {
  MonitorHarness h(TightConfig(), 1);
  for (int t = 0; t < 4; ++t) {
    h.Feed(0);
    h.Tick();
  }
  // Anomaly threshold is ghost_factor * baseline = 8 reads/sec. Flooding
  // above it for anomaly_suspect_count consecutive seconds trips the
  // detector even though the reader is active.
  h.Feed(0, 20);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kHealthy);
  h.Feed(0, 20);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kSuspect);
  // Silence from a flooding reader is NOT trusted by the inference path.
  EXPECT_FALSE(h.monitor().view().SilenceTrusted(0));
  // A normal-rate second recovers it to probation.
  h.Feed(0);
  h.Tick();
  EXPECT_EQ(h.monitor().StateOf(0), ReaderHealth::kProbation);
}

TEST(HealthMonitor, DisabledMonitorIsANoOp) {
  ReaderHealthConfig config;  // enabled = false.
  MonitorHarness h(config, 3);
  for (int t = 0; t < 20; ++t) {
    h.Tick();  // Total silence, but the monitor is off.
  }
  EXPECT_FALSE(h.monitor().enabled());
  EXPECT_EQ(h.monitor().stats().Total(), 0);
  EXPECT_EQ(h.monitor().transition_end(), 0u);
  EXPECT_FALSE(h.monitor().view().AnyDegraded());
}

TEST(HealthMonitor, TransitionLogDrainsIncrementallyAndSignalsLostSync) {
  ReaderHealthConfig config;
  config.enabled = true;
  config.warmup_seconds = 1;
  config.suspect_after_seconds = 1;
  config.dead_after_seconds = 2;
  config.probation_seconds = 1;
  MonitorHarness h(config, 1);
  h.Feed(0);
  h.Tick();  // Warmup: baseline 1 read/sec, window 1.

  // One flap cycle = 3 ticks, 3 transitions: silent -> suspect, active ->
  // probation, active -> healthy.
  auto flap = [&h] {
    h.Tick();
    h.Feed(0);
    h.Tick();
    h.Feed(0);
    h.Tick();
  };

  flap();
  std::vector<ReaderHealthTransition> log;
  bool lost = false;
  uint64_t cursor = h.monitor().ReadTransitions(0, &log, &lost);
  EXPECT_FALSE(lost);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(log[0].to, ReaderHealth::kSuspect);
  EXPECT_EQ(log[1].to, ReaderHealth::kProbation);
  EXPECT_EQ(log[2].to, ReaderHealth::kHealthy);

  // Incremental drain: the next cycle yields exactly the new entries.
  flap();
  log.clear();
  cursor = h.monitor().ReadTransitions(cursor, &log, &lost);
  EXPECT_FALSE(lost);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(cursor, 6u);

  // Overflow the 1024-entry ring; a stale cursor must report lost sync
  // but still return every retained transition.
  for (int i = 0; i < 400; ++i) {
    flap();
  }
  log.clear();
  const uint64_t end = h.monitor().ReadTransitions(0, &log, &lost);
  EXPECT_TRUE(lost);
  EXPECT_EQ(log.size(), 1024u);
  EXPECT_EQ(end, h.monitor().transition_end());
  EXPECT_EQ(log.back().seq + 1, end);
  // A current cursor stays in sync.
  log.clear();
  h.monitor().ReadTransitions(end, &log, &lost);
  EXPECT_FALSE(lost);
  EXPECT_TRUE(log.empty());
}

TEST(HealthView, OutOfRangeReadersReportHealthy) {
  ReaderHealthView view({ReaderHealth::kHealthy, ReaderHealth::kSuspect,
                         ReaderHealth::kDead, ReaderHealth::kProbation});
  EXPECT_EQ(view.Of(-1), ReaderHealth::kHealthy);
  EXPECT_EQ(view.Of(99), ReaderHealth::kHealthy);
  EXPECT_FALSE(view.Degraded(0));
  EXPECT_TRUE(view.Degraded(1));
  EXPECT_TRUE(view.Degraded(3));  // Probation still flags answers.
  EXPECT_TRUE(view.SilenceTrusted(0));
  EXPECT_FALSE(view.SilenceTrusted(1));
  EXPECT_FALSE(view.SilenceTrusted(2));
  EXPECT_TRUE(view.SilenceTrusted(3));  // Probation is reporting again.
  EXPECT_EQ(view.degraded_count(), 3);
}

// ---------------------------------------------------------------------------
// The silence-trust bridge: per-second collector liveness AND monitor
// verdict (satellite: the negative-information footgun fix).

TEST(SilenceTrust, CollectorLivenessGateUntrustsZeroReadingSeconds) {
  DataCollector collector;
  RawReading reading;
  reading.object = 1;
  reading.reader = 0;
  reading.time = 100;
  collector.Observe(reading);

  const HealthSilenceTrust trust(&collector, nullptr);
  uint8_t mask[2] = {9, 9};
  // Second 100: reader 0 reported, reader 1 did not.
  EXPECT_TRUE(trust.FillSilenceTrust(100, 2, mask));
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
  // Second 99 is inside the retention window and nobody reported: no
  // reader's silence is informative.
  EXPECT_TRUE(trust.FillSilenceTrust(99, 2, mask));
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 0);
  // Seconds older than the retention window are assumed live (legacy
  // weighting for deep replays): everyone trusted, caller keeps the
  // unmasked kernel.
  const int64_t ancient = 100 - DataCollector::kLivenessWindowSeconds - 10;
  EXPECT_FALSE(trust.FillSilenceTrust(ancient, 2, mask));
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 1);
}

TEST(SilenceTrust, MonitorVerdictMasksSuspectReaders) {
  MonitorHarness h(TightConfig(), 2);
  for (int t = 0; t < 4; ++t) {
    h.Feed(0);
    h.Feed(1);
    h.Tick();
  }
  for (int t = 0; t < 2; ++t) {
    h.Feed(1);
    h.Tick();
  }
  ASSERT_EQ(h.monitor().StateOf(0), ReaderHealth::kSuspect);

  // Monitor only (no per-second gate): the suspect reader is untrusted at
  // EVERY second, the healthy one trusted.
  const HealthSilenceTrust trust(nullptr, &h.monitor());
  uint8_t mask[2] = {9, 9};
  EXPECT_TRUE(trust.FillSilenceTrust(3, 2, mask));
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);

  // Combined with the collector, the per-second gate further untrusts the
  // healthy reader at seconds it produced nothing.
  const HealthSilenceTrust both(&h.collector(), &h.monitor());
  EXPECT_TRUE(both.FillSilenceTrust(h.now() + 50, 2, mask));
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 0);
}

TEST(SilenceTrust, NullSourcesTrustEveryReader) {
  const HealthSilenceTrust trust(nullptr, nullptr);
  uint8_t mask[3] = {0, 0, 0};
  EXPECT_FALSE(trust.FillSilenceTrust(5, 3, mask));
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 1);
  EXPECT_EQ(mask[2], 1);
}

// ---------------------------------------------------------------------------
// Shared warmed-up world for the inference-path tests.

class HealthWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = 11;
    sim_ = Simulation::Create(config).value().release();
    sim_->Run(300);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }

  static QueryEngine MakeEngine(const ReaderHealthMonitor* health) {
    EngineConfig config;
    config.num_threads = 1;
    config.use_cache = true;
    config.use_pruning = true;
    config.seed = 99;
    config.health = health;
    return QueryEngine(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                       &sim_->anchor_graph(), &sim_->deployment(),
                       &sim_->deployment_graph(), &sim_->collector(), config);
  }

  // A monitor (over its own collector) that holds exactly `starved`
  // degraded: every reader reports during warmup, then `starved` goes
  // silent until it turns suspect.
  static std::unique_ptr<MonitorHarness> StarvedMonitor(ReaderId starved) {
    const int n = sim_->deployment().num_readers();
    auto h = std::make_unique<MonitorHarness>(TightConfig(), n);
    for (int t = 0; t < 4; ++t) {
      for (ReaderId r = 0; r < n; ++r) {
        h->Feed(r);
      }
      h->Tick();
    }
    while (h->monitor().StateOf(starved) != ReaderHealth::kSuspect) {
      for (ReaderId r = 0; r < n; ++r) {
        if (r != starved) {
          h->Feed(r);
        }
      }
      h->Tick();
    }
    return h;
  }

  static Simulation* sim_;
};

Simulation* HealthWorld::sim_ = nullptr;

// Satellite regression, old vs. new weighting: under the legacy model a
// particle inside a silent reader's zone is discounted; with the reader's
// silence untrusted the discount must vanish — and an all-ones mask must
// stay bit-identical to the unmasked kernel.
TEST_F(HealthWorld, UntrustedReaderZoneGivesNoSilenceDiscount) {
  MeasurementConfig config;
  config.use_negative_information = true;
  config.silent_zone_weight = 0.25;
  const MeasurementModel model(config);
  const Deployment& deployment = sim_->deployment();
  const Point inside = deployment.reader(0).pos;  // Inside its own zone.

  const size_t n = static_cast<size_t>(deployment.num_readers());
  std::vector<uint8_t> all_trusted(n, 1);
  std::vector<uint8_t> zone_untrusted(n, 1);
  zone_untrusted[0] = 0;

  // The silence weight of one particle at `inside` (a batch of one).
  const auto weigh = [&](const uint8_t* mask) {
    double weight = 1.0;
    model.WeightOnSilence(deployment, 1, &inside.x, &inside.y, &weight,
                          mask);
    return weight;
  };
  // Old behavior: the discount applies.
  double legacy = 1.0;
  model.WeightOnSilence(deployment, 1, &inside.x, &inside.y, &legacy);
  EXPECT_DOUBLE_EQ(legacy, 0.25);
  // Masked with everyone trusted: bit-identical to the legacy path.
  EXPECT_EQ(weigh(all_trusted.data()), legacy);
  EXPECT_EQ(weigh(nullptr), legacy);
  // New behavior: the covering reader's silence is uninformative.
  EXPECT_DOUBLE_EQ(weigh(zone_untrusted.data()), 1.0);
}

TEST_F(HealthWorld, BatchSilenceKernelHonorsTheTrustMask) {
  MeasurementConfig config;
  config.use_negative_information = true;
  config.silent_zone_weight = 0.25;
  const MeasurementModel model(config);
  const Deployment& deployment = sim_->deployment();
  const size_t readers = static_cast<size_t>(deployment.num_readers());

  // A cloud straddling reader 0's zone: its center plus points far outside
  // every zone (the bounding box corner, nudged outward).
  const Point inside = deployment.reader(0).pos;
  const Rect box = sim_->plan().BoundingBox();
  std::vector<double> x = {inside.x, box.max_x + 50.0, inside.x,
                           box.max_x + 60.0};
  std::vector<double> y = {inside.y, box.max_y + 50.0, inside.y,
                           box.max_y + 60.0};
  const size_t n = x.size();

  std::vector<double> legacy(n, 1.0);
  const size_t touched =
      model.WeightOnSilence(deployment, n, x.data(), y.data(), legacy.data());
  EXPECT_EQ(touched, 2u);  // Exactly the two in-zone particles.
  EXPECT_DOUBLE_EQ(legacy[0], 0.25);
  EXPECT_DOUBLE_EQ(legacy[1], 1.0);

  // All-ones mask: bit-identical weights and count.
  std::vector<uint8_t> all_trusted(readers, 1);
  std::vector<double> masked(n, 1.0);
  EXPECT_EQ(model.WeightOnSilence(deployment, n, x.data(), y.data(),
                                  masked.data(), all_trusted.data()),
            touched);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(legacy[i], masked[i]) << i;
  }

  // Reader 0 untrusted: its zone contributes no discount anywhere.
  std::vector<uint8_t> zone_untrusted(readers, 1);
  zone_untrusted[0] = 0;
  std::vector<double> gated(n, 1.0);
  const size_t gated_touched = model.WeightOnSilence(
      deployment, n, x.data(), y.data(), gated.data(), zone_untrusted.data());
  EXPECT_EQ(gated_touched, 0u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(gated[i], 1.0) << i;
  }
}

// A provider that trusts everyone must leave filter inference bit-identical
// to running with no provider at all (the masked kernel's identity path).
TEST_F(HealthWorld, AllTrustedProviderIsBitIdenticalToLegacyInference) {
  class AllTrusted final : public SilenceTrustProvider {
   public:
    bool FillSilenceTrust(int64_t second, size_t num_readers,
                          uint8_t* mask) const override {
      std::fill(mask, mask + num_readers, uint8_t{1});
      return false;
    }
  };

  ObjectId victim = kInvalidId;
  for (ObjectId id : sim_->collector().KnownObjects()) {
    if (sim_->collector().History(id)->entries.size() >= 3) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);
  const DataCollector::ObjectHistory& history =
      *sim_->collector().History(victim);

  FilterConfig config = sim_->config().filter;
  config.measurement.use_negative_information = true;
  ParticleFilter legacy(&sim_->graph(), &sim_->deployment(), config);
  ParticleFilter provided(&sim_->graph(), &sim_->deployment(), config);
  const AllTrusted trust;
  provided.SetSilenceTrust(&trust);

  Rng rng_a(5);
  Rng rng_b(5);
  const int64_t now = history.LastTime() + 10;
  const AnchorDistribution a =
      legacy.Infer(sim_->anchors(), history, now, rng_a);
  const AnchorDistribution b =
      provided.Infer(sim_->anchors(), history, now, rng_b);
  ASSERT_EQ(a.support_size(), b.support_size());
  for (const auto& [anchor, p] : a.entries()) {
    EXPECT_EQ(p, b.ProbabilityAt(anchor)) << "anchor " << anchor;
  }
}

// ---------------------------------------------------------------------------
// coverage_degraded annotations on answers.

TEST_F(HealthWorld, RangeOverDegradedReaderZoneIsFlagged) {
  auto h = StarvedMonitor(9);
  QueryEngine engine = MakeEngine(&h->monitor());
  const int64_t now = sim_->now();

  // A window over the starved reader's zone: degraded coverage.
  const Rect over = Rect::FromCenter(sim_->deployment().reader(9).pos, 10, 10);
  const QueryResult flagged = engine.EvaluateRange(over, now);
  EXPECT_TRUE(flagged.coverage_degraded);

  // With a monitor that holds nothing degraded, the same window is clean.
  MonitorHarness clean(TightConfig(), sim_->deployment().num_readers());
  QueryEngine clean_engine = MakeEngine(&clean.monitor());
  EXPECT_FALSE(clean_engine.EvaluateRange(over, now).coverage_degraded);

  // And with no monitor wired at all, the field stays false.
  QueryEngine off = MakeEngine(nullptr);
  EXPECT_FALSE(off.EvaluateRange(over, now).coverage_degraded);
}

TEST_F(HealthWorld, KnnNearDegradedReaderIsFlaggedThroughItsCandidates) {
  // Starve the current device of a known object, then ask for neighbors at
  // that reader's position: the object is a candidate, so the answer's
  // coverage depends on a degraded reader.
  ReaderId device = kInvalidId;
  for (ObjectId id : sim_->collector().KnownObjects()) {
    const ReaderId d = sim_->collector().History(id)->current_device;
    if (d != kInvalidId) {
      device = d;
      break;
    }
  }
  ASSERT_NE(device, kInvalidId);

  auto h = StarvedMonitor(device);
  QueryEngine engine = MakeEngine(&h->monitor());
  const KnnResult knn =
      engine.EvaluateKnn(sim_->deployment().reader(device).pos, 5, sim_->now());
  EXPECT_TRUE(knn.result.coverage_degraded);
}

TEST_F(HealthWorld, SchedulerAnnotatesBatchSlotsLikeTheSerialPath) {
  auto h = StarvedMonitor(9);
  QueryEngine engine = MakeEngine(&h->monitor());
  const int64_t now = sim_->now();
  const Rect over = Rect::FromCenter(sim_->deployment().reader(9).pos, 10, 10);
  const Point q = sim_->deployment().reader(5).pos;

  const QueryResult serial_range = engine.EvaluateRange(over, now);
  const KnnResult serial_knn = engine.EvaluateKnn(q, 3, now);

  QueryScheduler scheduler(&engine);
  const std::vector<BatchAnswer> batch = scheduler.EvaluateBatch(
      {BatchQuery::Range(over), BatchQuery::Knn(q, 3)}, now);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].range.coverage_degraded, serial_range.coverage_degraded);
  EXPECT_EQ(batch[1].knn.result.coverage_degraded,
            serial_knn.result.coverage_degraded);
  EXPECT_TRUE(batch[0].range.coverage_degraded);
}

// ---------------------------------------------------------------------------
// Acceptance criteria against full simulated runs.

// A clean run must produce zero false suspect/dead transitions: natural
// coverage gaps are absorbed by the warmup-widened windows and the
// min-baseline gate.
TEST(HealthAcceptance, CleanRunHasZeroFalseTransitions) {
  SimulationConfig config;
  config.trace.num_objects = 60;
  config.seed = 11;
  config.health.enabled = true;
  auto sim = Simulation::Create(config).value();
  sim->Run(400);
  ASSERT_NE(sim->health_monitor(), nullptr);
  EXPECT_EQ(sim->health_stats().Total(), 0);
  EXPECT_FALSE(sim->health_monitor()->view().AnyDegraded());
}

// The same over many worlds: no clean run may trip either detector. A
// reader that saw no tags during warmup used to read two lingering objects
// as a ghost flood, in about one clean world in four.
TEST(HealthAcceptance, CleanRunsAcrossWorldsHaveZeroFalseTransitions) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = seed;
    config.health.enabled = true;
    auto sim = Simulation::Create(config).value();
    sim->Run(400);
    EXPECT_EQ(sim->health_stats().Total(), 0) << "seed " << seed;
  }
}

// Under 20% reader dropout, every silence detection of an injected outage
// lands within twice the reader's effective suspect window of the epoch's
// onset (FaultPlan::ReaderDownAt is the ground truth).
TEST(HealthAcceptance, DetectionLatencyWithinTwiceTheSuspectWindow) {
  SimulationConfig config;
  config.trace.num_objects = 60;
  config.seed = 11;
  config.faults.seed = 23;
  config.faults.dropout_rate = 0.2;
  config.health.enabled = true;
  auto sim = Simulation::Create(config).value();
  sim->Run(400);
  const ReaderHealthMonitor* monitor = sim->health_monitor();
  ASSERT_NE(monitor, nullptr);

  std::vector<ReaderHealthTransition> log;
  bool lost = false;
  monitor->ReadTransitions(0, &log, &lost);
  ASSERT_FALSE(lost);

  const FaultPlan& plan = sim->config().faults;
  int detections = 0;
  for (const ReaderHealthTransition& tr : log) {
    if (tr.to != ReaderHealth::kSuspect ||
        tr.from != ReaderHealth::kHealthy ||
        !plan.ReaderDownAt(tr.reader, tr.time)) {
      continue;  // Recoveries, relapses, or detections of natural silence.
    }
    ++detections;
    int64_t onset = tr.time;
    while (onset > 0 && plan.ReaderDownAt(tr.reader, onset - 1)) {
      --onset;
    }
    const int window = monitor->SuspectWindow(tr.reader);
    ASSERT_GT(window, 0) << "reader " << tr.reader;
    EXPECT_LE(tr.time - onset, 2 * window)
        << "reader " << tr.reader << " detected at " << tr.time
        << " for an outage starting at " << onset;
  }
  // 19 readers x 40 epochs x 20% dropout: plenty of real outages to catch.
  EXPECT_GT(detections, 5);
  EXPECT_GT(sim->health_stats().dead + sim->health_stats().suspect, 0);
}

}  // namespace
}  // namespace ipqs
