// The engine's per-version object view and its (now, version) memo key.
//
// Pruning reads a flat, object-ascending copy of every known object's
// newest entry that the engine rebuilds only when the collector's version
// moves. These tests hold the view to a reference computed straight from
// the collector's histories — across clean and faulty worlds, several
// query times, and collectors restored wholesale — and check that a
// reading applied within one second reaches the next query at that second.

#include <algorithm>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/query_engine.h"
#include "query/subscription.h"
#include "query/uncertain_region.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

std::unique_ptr<QueryEngine> MakeEngine(const Simulation& sim,
                                        const DataCollector* collector,
                                        const EngineConfig& config = {}) {
  return std::make_unique<QueryEngine>(
      &sim.graph(), &sim.plan(), &sim.anchors(), &sim.anchor_graph(),
      &sim.deployment(), &sim.deployment_graph(), collector, config);
}

// Range pruning written from the collector's histories: every known
// object whose uncertain region reaches some rectangle of the footprint.
std::vector<ObjectId> ReferenceRange(const DataCollector& collector,
                                     const Deployment& deployment,
                                     const std::vector<Rect>& footprint,
                                     int64_t now, double max_speed) {
  std::vector<ObjectId> out;
  for (ObjectId o : collector.KnownObjects()) {
    const DataCollector::ObjectHistory* h = collector.History(o);
    const UncertainRegion ur = ComputeUncertainRegion(
        deployment, o, h->entries.back(), now, max_speed);
    double gap = std::numeric_limits<double>::infinity();
    for (const Rect& r : footprint) {
      gap = std::min(gap, r.DistanceTo(ur.center));
    }
    if (gap <= ur.radius) {
      out.push_back(o);
    }
  }
  return out;
}

// kNN pruning (Eq. 6) written from the collector's histories: keep every
// object whose s_i is at most the k-th smallest l_i, or everyone when at
// most k objects are known.
std::vector<ObjectId> ReferenceKnn(const DataCollector& collector,
                                   const Deployment& deployment,
                                   const SourceDistances& dists, int k,
                                   int64_t now, double max_speed) {
  const std::vector<ObjectId> known = collector.KnownObjects();
  std::vector<double> s;
  std::vector<double> l;
  for (ObjectId o : known) {
    const UncertainRegion ur = ComputeUncertainRegion(
        deployment, o, collector.History(o)->entries.back(), now, max_speed);
    const double d = dists.to_reader[ur.reader];
    s.push_back(std::max(0.0, d - ur.radius));
    l.push_back(d + ur.radius);
  }
  if (known.size() <= static_cast<size_t>(k)) {
    return known;
  }
  std::vector<double> sorted = l;
  std::sort(sorted.begin(), sorted.end());
  const double f = sorted[static_cast<size_t>(k) - 1];
  std::vector<ObjectId> out;
  for (size_t i = 0; i < known.size(); ++i) {
    if (s[i] <= f) {
      out.push_back(known[i]);
    }
  }
  return out;
}

// A fixed panel of range windows and kNN points spread over the plan.
std::vector<BatchQuery> Panel(const Simulation& sim) {
  std::vector<BatchQuery> batch;
  const Rect b = sim.plan().BoundingBox();
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double x = b.min_x + (i + 0.5) * b.Width() / 6;
      const double y = b.min_y + (j + 0.5) * b.Height() / 3;
      batch.push_back(BatchQuery::Range(Rect::FromCenter({x, y}, 7, 5)));
    }
  }
  for (int i = 0; i < 12; ++i) {
    const AnchorId a = static_cast<AnchorId>(
        (i * 37) % sim.anchors().num_anchors());
    batch.push_back(BatchQuery::Knn(sim.anchors().anchor(a).pos, 1 + i % 4));
  }
  return batch;
}

// Serves `batch` at `now` and checks every slot's candidates against the
// reference over `collector`. Returns the number of slots checked.
int ServeAndCheck(QueryEngine& engine, const DataCollector& collector,
                  const Simulation& sim, std::span<const BatchQuery> batch,
                  int64_t now, const std::string& label) {
  std::vector<BatchAnswer> answers(batch.size());
  std::vector<BatchSlotDetail> details(batch.size());
  engine.Serve(batch, now, /*deadline_ms=*/0, answers, {}, details);
  const RangeQueryEvaluator footprints(&sim.plan(), &sim.anchors());
  const double u = engine.config().max_speed;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<ObjectId> want =
        batch[i].kind == BatchQuery::Kind::kRange
            ? ReferenceRange(collector, sim.deployment(),
                             footprints.Footprint(batch[i].window), now, u)
            : ReferenceKnn(collector, sim.deployment(), details[i].dists,
                           batch[i].k, now, u);
    EXPECT_EQ(details[i].candidates, want) << label << " slot " << i;
  }
  return static_cast<int>(batch.size());
}

struct WorldCase {
  uint64_t seed;
  bool faults;
};

void PrintTo(const WorldCase& world, std::ostream* os) {
  *os << "seed " << world.seed << (world.faults ? " faulty" : " clean");
}

class ObjectViewPruneTest : public ::testing::TestWithParam<WorldCase> {};

TEST_P(ObjectViewPruneTest, ServeCandidatesMatchHistoryReference) {
  const WorldCase world = GetParam();
  SimulationConfig config;
  config.seed = world.seed;
  config.trace.num_objects = 60;
  if (world.faults) {
    config.faults.seed = world.seed + 100;
    config.faults.dropout_rate = 0.05;
    config.faults.duplicate_rate = 0.05;
    config.faults.reorder_rate = 0.05;
    config.faults.batch_delay_rate = 0.05;
    config.faults.noise_burst_rate = 0.05;
    config.faults.max_clock_skew_seconds = 1;
    config.collector.reorder_window_seconds = 3;
  }
  auto sim = Simulation::Create(config).value();
  auto engine = MakeEngine(*sim, &sim->collector());
  const std::vector<BatchQuery> batch = Panel(*sim);
  const std::string name = "seed " + std::to_string(world.seed);

  // Live collector: several query times, each served twice (the second
  // pass reuses the view and the memo).
  std::vector<int64_t> times;
  for (int checkpoint = 0; checkpoint < 4; ++checkpoint) {
    const int steps = checkpoint == 0 ? 120 : 7 + 11 * checkpoint;
    for (int s = 0; s < steps; ++s) {
      sim->Step();
    }
    times.push_back(sim->now());
    for (int pass = 0; pass < 2; ++pass) {
      ServeAndCheck(*engine, sim->collector(), *sim, batch, sim->now(),
                    name + " t=" + std::to_string(sim->now()) + " pass " +
                        std::to_string(pass));
    }
  }

  // Restored collectors: the history store's state at each earlier time,
  // restored out of order into one collector and served at one `now`, so
  // only the version RestoreState moves tells the view it is stale.
  DataCollector restored;
  auto replay = MakeEngine(*sim, &restored);
  const int64_t now = times.back();
  for (int64_t t : {times[2], times[0], times[3], times[1]}) {
    DataCollector::PersistedState state;
    for (ObjectId o : sim->history().KnownObjects()) {
      if (auto h = sim->history().SnapshotAt(o, t)) {
        state.histories.emplace_back(o, std::move(*h));
      }
    }
    ASSERT_FALSE(state.histories.empty());
    restored.RestoreState(std::move(state));
    ServeAndCheck(*replay, restored, *sim, batch, now,
                  name + " restored to t=" + std::to_string(t));
  }
  // And the live collector's exported state, restored wholesale.
  restored.RestoreState(sim->collector().ExportState());
  ServeAndCheck(*replay, restored, *sim, batch, now, name + " export");
}

INSTANTIATE_TEST_SUITE_P(Worlds, ObjectViewPruneTest,
                         ::testing::Values(WorldCase{31, false},
                                           WorldCase{32, true},
                                           WorldCase{33, false},
                                           WorldCase{34, true},
                                           WorldCase{35, false},
                                           WorldCase{36, true}));

TEST(CollectorVersionTest, MovesOnEveryQueryVisibleChange) {
  DataCollector collector;
  uint64_t v = collector.version();
  collector.Observe({1, 0, 10});
  EXPECT_NE(collector.version(), v);
  v = collector.version();
  collector.NoteReaderHeartbeat(3, 10);  // A liveness mark.
  EXPECT_NE(collector.version(), v);
  v = collector.version();
  collector.RestoreState(collector.ExportState());
  EXPECT_NE(collector.version(), v);
  v = collector.version();
  // Reads change nothing, and neither do repeats that leave every history
  // and liveness bit as it was.
  collector.KnownObjects();
  collector.ExportState();
  EXPECT_EQ(collector.version(), v);
  collector.Observe({1, 0, 11});
  collector.NoteReaderHeartbeat(3, 11);
  v = collector.version();
  collector.Observe({1, 0, 11});  // Duplicate reading.
  collector.NoteReaderHeartbeat(3, 11);
  EXPECT_EQ(collector.version(), v);
}

// The world of the memo-key tests: object 1 seen by reader 0 through
// t = 90..99, a 4 x 4 m window around that reader, queries at now = 100.
class MemoKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimulationConfig config;
    config.seed = 5;
    sim_ = Simulation::Create(config).value();
    for (int64_t t = 90; t < 100; ++t) {
      collector_.Observe({1, 0, t});
    }
    window_ =
        Rect::FromCenter(sim_->deployment().reader(0).pos, 4.0, 4.0);
  }

  std::unique_ptr<Simulation> sim_;
  DataCollector collector_;
  Rect window_;
};

TEST_F(MemoKeyTest, SecondQueryAtSameNowSeesLaterReading) {
  auto engine = MakeEngine(*sim_, &collector_);
  const double before = engine->EvaluateRange(window_, 100).ProbabilityOf(1);

  collector_.Observe({1, 0, 100});
  const double after = engine->EvaluateRange(window_, 100).ProbabilityOf(1);
  const double fresh =
      MakeEngine(*sim_, &collector_)->EvaluateRange(window_, 100).ProbabilityOf(1);
  EXPECT_EQ(after, fresh);
  EXPECT_NE(after, before);  // The reading at 100 does move the answer.
}

TEST_F(MemoKeyTest, InferObjectAtSameNowSeesLaterReading) {
  auto engine = MakeEngine(*sim_, &collector_);
  const std::vector<std::pair<AnchorId, double>> before =
      engine->InferObject(1, 100)->entries();
  collector_.Observe({1, 0, 100});
  const AnchorDistribution* after = engine->InferObject(1, 100);
  auto fresh = MakeEngine(*sim_, &collector_);
  EXPECT_EQ(after->entries(), fresh->InferObject(1, 100)->entries());
  EXPECT_NE(after->entries(), before);
}

TEST_F(MemoKeyTest, SubscriptionTickedTwiceAtOneNowMatchesFreshBatch) {
  collector_.Observe({2, 9, 95});  // A second object, far away.
  auto engine = MakeEngine(*sim_, &collector_);
  SubscriptionManager manager(engine.get());
  const SubscriptionId range = manager.AddRange(window_);
  const Point reader0 = sim_->deployment().reader(0).pos;
  const SubscriptionId knn = manager.AddKnn(reader0, 1);
  manager.Tick(100);
  const double first = manager.Answer(range).range.ProbabilityOf(1);

  collector_.Observe({1, 0, 100});
  manager.Tick(100);
  const std::vector<BatchQuery> batch = {BatchQuery::Range(window_),
                                         BatchQuery::Knn(reader0, 1)};
  std::vector<BatchAnswer> fresh(batch.size());
  MakeEngine(*sim_, &collector_)->Serve(batch, 100, 0, fresh);
  EXPECT_EQ(manager.Answer(range).range.objects, fresh[0].range.objects);
  EXPECT_EQ(manager.Answer(knn).knn.result.objects,
            fresh[1].knn.result.objects);
  EXPECT_NE(manager.Answer(range).range.ProbabilityOf(1), first);
}

}  // namespace
}  // namespace ipqs
