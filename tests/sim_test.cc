#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "sim/ascii_map.h"
#include "sim/experiment.h"
#include "sim/ground_truth.h"
#include "sim/metrics.h"
#include "sim/reading_generator.h"
#include "sim/simulation.h"
#include "sim/trace_generator.h"

namespace ipqs {
namespace {

class SimFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SimulationConfig config;
    config.trace.num_objects = 20;
    config.seed = 123;
    sim_ = Simulation::Create(config).value();
  }

  std::unique_ptr<Simulation> sim_;
};

TEST_F(SimFixture, CreateBuildsPaperWorld) {
  EXPECT_EQ(sim_->plan().rooms().size(), 30u);
  EXPECT_EQ(sim_->plan().hallways().size(), 4u);
  EXPECT_EQ(sim_->deployment().num_readers(), 19);
  EXPECT_TRUE(sim_->deployment().RangesDisjoint());
  EXPECT_TRUE(sim_->graph().Validate().ok());
  EXPECT_EQ(sim_->true_states().size(), 20u);
}

TEST_F(SimFixture, ObjectsStayOnWalkableSpace) {
  sim_->Run(120);
  for (const TrueObjectState& s : sim_->true_states()) {
    if (s.in_room) {
      EXPECT_TRUE(sim_->plan().room(s.room).bounds.Contains(s.pos));
    } else {
      // On a hallway (within width) or on a stub (crossing into a room).
      const Edge& e = sim_->graph().edge(s.loc.edge);
      const Point on_line = sim_->graph().PositionOf(s.loc);
      if (e.kind == EdgeKind::kHallway) {
        const Hallway& h = sim_->plan().hallway(e.hallway);
        EXPECT_LE(h.centerline.DistanceTo(s.pos), h.width / 2 + 1e-9);
      } else {
        EXPECT_LT(Distance(on_line, s.pos), 1e-9);
      }
    }
  }
}

TEST_F(SimFixture, ObjectsRespectSpeedLimit) {
  std::vector<Point> before;
  std::vector<bool> was_in_room;
  for (const TrueObjectState& s : sim_->true_states()) {
    before.push_back(s.pos);
    was_in_room.push_back(s.in_room);
  }
  sim_->Step();
  // While walking, one second covers at most ~max speed of graph distance
  // plus lateral jitter when switching edges (generous bound). Room
  // entry/exit teleports within the room and is excluded.
  for (size_t i = 0; i < before.size(); ++i) {
    const TrueObjectState& s = sim_->true_states()[i];
    if (!s.in_room && !was_in_room[i]) {
      EXPECT_LE(Distance(before[i], s.pos), 6.0);
    }
  }
}

TEST_F(SimFixture, ReadingsFlowIntoCollector) {
  sim_->Run(180);
  EXPECT_GT(sim_->collector().KnownObjects().size(), 5u);
  EXPECT_GT(sim_->reading_stats().detections, 0);
  // The sensing model's miss rate should be near its analytic value.
  const double expected_miss =
      1.0 - SensingModel(sim_->config().sensing).PerSecondDetectionProbability();
  EXPECT_NEAR(sim_->reading_stats().MissRate(), expected_miss, 0.02);
}

TEST_F(SimFixture, DeterministicForSameSeed) {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 123;
  auto other = Simulation::Create(config).value();
  other->Run(100);

  auto fresh = Simulation::Create(config).value();
  fresh->Run(100);

  for (size_t i = 0; i < other->true_states().size(); ++i) {
    EXPECT_EQ(other->true_states()[i].pos, fresh->true_states()[i].pos);
  }
  EXPECT_EQ(other->collector().TotalEntriesRetained(),
            fresh->collector().TotalEntriesRetained());
}

TEST_F(SimFixture, DifferentSeedsDiverge) {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 999;
  auto other = Simulation::Create(config).value();
  sim_->Run(60);
  other->Run(60);
  int same = 0;
  for (size_t i = 0; i < other->true_states().size(); ++i) {
    same += other->true_states()[i].pos == sim_->true_states()[i].pos;
  }
  EXPECT_LT(same, 3);
}

TEST(TraceGeneratorTest, AllObjectsEventuallyVisitRooms) {
  SimulationConfig config;
  config.trace.num_objects = 10;
  config.seed = 5;
  auto sim = Simulation::Create(config).value();
  std::set<ObjectId> roomed;
  for (int t = 0; t < 600; ++t) {
    sim->Step();
    for (const TrueObjectState& s : sim->true_states()) {
      if (s.in_room) roomed.insert(s.id);
    }
  }
  EXPECT_EQ(roomed.size(), 10u);
}

TEST(TraceGeneratorTest, HallwayStopsKeepObjectsOnHallways) {
  SimulationConfig config;
  config.trace.num_objects = 12;
  config.trace.hallway_stop_probability = 1.0;  // Never enter rooms.
  config.seed = 77;
  auto sim = Simulation::Create(config).value();
  int dwelling_on_hallway = 0;
  for (int t = 0; t < 300; ++t) {
    sim->Step();
    for (const TrueObjectState& s : sim->true_states()) {
      EXPECT_FALSE(s.in_room);
      EXPECT_EQ(s.room, kInvalidId);
      if (s.dwelling) {
        ++dwelling_on_hallway;
        EXPECT_EQ(sim->graph().edge(s.loc.edge).kind, EdgeKind::kHallway);
      }
    }
  }
  EXPECT_GT(dwelling_on_hallway, 0);
}

TEST(TraceGeneratorTest, InRoomImpliesDwelling) {
  SimulationConfig config;
  config.trace.num_objects = 12;
  config.trace.hallway_stop_probability = 0.5;
  config.seed = 78;
  auto sim = Simulation::Create(config).value();
  for (int t = 0; t < 200; ++t) {
    sim->Step();
    for (const TrueObjectState& s : sim->true_states()) {
      if (s.in_room) {
        EXPECT_TRUE(s.dwelling);
        EXPECT_NE(s.room, kInvalidId);
      }
    }
  }
}

TEST(GroundTruthTest, RangeResultExactContainment) {
  std::vector<TrueObjectState> states(3);
  states[0].id = 0;
  states[0].pos = {5, 5};
  states[1].id = 1;
  states[1].pos = {15, 5};
  states[2].id = 2;
  states[2].pos = {10, 10};
  const Rect window(0, 0, 12, 8);
  EXPECT_EQ(GroundTruth::RangeResult(states, window),
            (std::vector<ObjectId>{0}));
}

TEST_F(SimFixture, GroundTruthKnnOrdersByNetworkDistance) {
  sim_->Run(30);
  const GraphLocation q{0, 0.5};
  const auto knn3 =
      sim_->ground_truth().KnnResult(sim_->true_states(), q, 3);
  ASSERT_EQ(knn3.size(), 3u);
  // Distances of the returned objects ascend and lower-bound the rest.
  const OneToAllDistances from_q(sim_->graph(), q);
  std::vector<double> dists;
  for (ObjectId id : knn3) {
    dists.push_back(from_q.ToLocation(sim_->true_states()[id].loc));
  }
  EXPECT_TRUE(std::is_sorted(dists.begin(), dists.end()));
  for (const TrueObjectState& s : sim_->true_states()) {
    if (std::find(knn3.begin(), knn3.end(), s.id) == knn3.end()) {
      EXPECT_GE(from_q.ToLocation(s.loc), dists.back() - 1e-9);
    }
  }
}

TEST(MetricsTest, KlZeroForPerfectPrediction) {
  QueryResult perfect;
  perfect.Add(1, 1.0);
  perfect.Add(2, 1.0);
  const auto kl = RangeKlDivergence({1, 2}, perfect);
  ASSERT_TRUE(kl.has_value());
  EXPECT_NEAR(*kl, 0.0, 1e-6);
}

TEST(MetricsTest, KlUndefinedForEmptyTruth) {
  QueryResult anything;
  anything.Add(1, 0.5);
  EXPECT_EQ(RangeKlDivergence({}, anything), std::nullopt);
}

TEST(MetricsTest, KlPenalizesMissingObjects) {
  QueryResult missing;  // Predicts nothing.
  QueryResult partial;
  partial.Add(1, 1.0);
  const double kl_missing = *RangeKlDivergence({1, 2}, missing);
  const double kl_partial = *RangeKlDivergence({1, 2}, partial);
  EXPECT_GT(kl_missing, kl_partial);
  EXPECT_GT(kl_partial, 0.0);
}

TEST(MetricsTest, KlPenalizesSpuriousMass) {
  QueryResult exact;
  exact.Add(1, 1.0);
  QueryResult diluted;
  diluted.Add(1, 1.0);
  diluted.Add(9, 5.0);  // Lots of mass on a wrong object.
  EXPECT_GT(*RangeKlDivergence({1}, diluted), *RangeKlDivergence({1}, exact));
}

TEST(MetricsTest, KlIsNonNegative) {
  QueryResult q;
  q.Add(1, 0.3);
  q.Add(2, 0.9);
  q.Add(3, 0.2);
  EXPECT_GE(*RangeKlDivergence({1, 2}, q), 0.0);
}

TEST(MetricsTest, HitRateFullAndTopK) {
  QueryResult r;
  r.Add(1, 0.9);
  r.Add(2, 0.8);
  r.Add(3, 0.7);
  r.Add(4, 0.6);
  // Truth {2, 4, 9}: full set hits 2 of 3.
  EXPECT_NEAR(KnnHitRate(r, {2, 4, 9}, 3, false), 2.0 / 3.0, 1e-12);
  // Top-3 = {1,2,3}: hits only object 2.
  EXPECT_NEAR(KnnHitRate(r, {2, 4, 9}, 3, true), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(KnnHitRate(r, {}, 3, false), 0.0);
}

TEST(MetricsTest, MeanAccumulator) {
  MeanAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  acc.Add(1.0);
  acc.Add(3.0);
  acc.AddOptional(std::nullopt);
  acc.AddOptional(5.0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 3.0);
  EXPECT_EQ(acc.count(), 3);
}

TEST_F(SimFixture, TopKSuccessMetric) {
  // A distribution with all mass at a known anchor: success iff the true
  // position is within tolerance of it.
  const AnchorPoint& ap = sim_->anchors().anchor(0);
  const AnchorDistribution dist =
      AnchorDistribution::FromWeights({{ap.id, 1.0}});
  EXPECT_TRUE(TopKSuccess(sim_->anchors(), dist, ap.pos, 1, 2.0));
  EXPECT_FALSE(TopKSuccess(sim_->anchors(), dist,
                           ap.pos + Point{50.0, 50.0}, 1, 2.0));
}

TEST_F(SimFixture, AsciiMapRendersAllLayers) {
  sim_->Run(60);
  AsciiMap map(sim_->plan(), 1.0);
  map.MarkReaders(sim_->deployment());
  map.MarkObjects(sim_->true_states());
  const Rect window =
      Rect::FromCenter(sim_->deployment().reader(9).pos, 8, 8);
  map.MarkWindow(window);
  const ObjectId obj = sim_->collector().KnownObjects().front();
  const AnchorDistribution* dist = sim_->pf_engine().InferObject(obj, sim_->now());
  ASSERT_NE(dist, nullptr);
  map.MarkDistribution(sim_->anchors(), *dist);

  const std::string rendered = map.Render();
  EXPECT_NE(rendered.find('#'), std::string::npos);   // Walls.
  EXPECT_NE(rendered.find('.'), std::string::npos);   // Room interiors.
  EXPECT_NE(rendered.find('+'), std::string::npos);   // Doors.
  EXPECT_NE(rendered.find('R'), std::string::npos);   // Readers.
  EXPECT_NE(rendered.find('o'), std::string::npos);   // Objects.
  EXPECT_NE(rendered.find('q'), std::string::npos);   // Query window.
  EXPECT_NE(rendered.find('9'), std::string::npos);   // Peak belief decile.

  // Every line has the same width; the map covers the bounding box.
  size_t line_len = rendered.find('\n');
  size_t lines = 0;
  size_t start = 0;
  while (start < rendered.size()) {
    const size_t end = rendered.find('\n', start);
    EXPECT_EQ(end - start, line_len);
    start = end + 1;
    ++lines;
  }
  const Rect box = sim_->plan().BoundingBox();
  EXPECT_GE(static_cast<double>(line_len), box.Width());
  EXPECT_GE(static_cast<double>(lines), box.Height());
}

TEST_F(SimFixture, AsciiMapScaleShrinksOutput) {
  AsciiMap fine(sim_->plan(), 1.0);
  AsciiMap coarse(sim_->plan(), 2.0);
  EXPECT_GT(fine.Render().size(), coarse.Render().size());
}

TEST(ExperimentTest, RandomWindowHasRequestedArea) {
  auto plan = GenerateOffice(OfficeConfig{}).value();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Rect w = Experiment::RandomWindow(plan, 0.02, rng);
    EXPECT_NEAR(w.Area(), 0.02 * plan.TotalArea(), 1e-6);
    const double aspect = w.Width() / w.Height();
    EXPECT_GE(aspect, 0.5 - 1e-9);
    EXPECT_LE(aspect, 2.0 + 1e-9);
  }
}

TEST(ExperimentTest, SmallExperimentRunsEndToEnd) {
  ExperimentConfig config;
  config.sim.trace.num_objects = 20;
  config.sim.seed = 17;
  config.warmup_seconds = 120;
  config.num_timestamps = 3;
  config.seconds_between_timestamps = 10;
  config.range_queries_per_timestamp = 10;
  config.knn_query_points = 5;

  Experiment experiment(config);
  const auto result = experiment.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->range_windows_scored, 0);
  EXPECT_GE(result->kl_pf, 0.0);
  EXPECT_GE(result->kl_sm, 0.0);
  EXPECT_GE(result->hit_pf, 0.0);
  EXPECT_LE(result->hit_pf, 1.0);
  EXPECT_GE(result->top1, 0.0);
  EXPECT_LE(result->top2, 1.0);
  EXPECT_GE(result->top2, result->top1);  // Top-2 can only help.
  EXPECT_GT(result->pf_stats.filter_runs + result->pf_stats.filter_resumes, 0);
}

// Counts and sizes that arrive from the command line (run_experiment) must
// fail with INVALID_ARGUMENT, not abort on an internal invariant.
TEST(ConfigValidationTest, NonPositiveObjectCountIsInvalidArgument) {
  for (const int objects : {0, -5}) {
    SimulationConfig config;
    config.trace.num_objects = objects;
    const auto sim = Simulation::Create(config);
    ASSERT_FALSE(sim.ok()) << "objects " << objects;
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ConfigValidationTest, NonPositiveParticleCountIsInvalidArgument) {
  SimulationConfig config;
  config.trace.num_objects = 5;
  config.filter.num_particles = 0;
  const auto sim = Simulation::Create(config);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
}

ExperimentConfig TinyExperiment() {
  ExperimentConfig config;
  config.sim.trace.num_objects = 5;
  config.warmup_seconds = 20;
  config.num_timestamps = 1;
  config.range_queries_per_timestamp = 3;
  config.knn_query_points = 2;
  return config;
}

TEST(ConfigValidationTest, NonPositiveKIsInvalidArgument) {
  ExperimentConfig config = TinyExperiment();
  config.k = 0;
  const auto result = Experiment(config).Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigValidationTest, NonPositiveWindowFractionIsInvalidArgument) {
  ExperimentConfig config = TinyExperiment();
  config.window_area_fraction = 0.0;
  const auto result = Experiment(config).Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ipqs
