// Snapping (AnchorDistribution::FromParticles) and the APtoObjHT
// (AnchorObjectTable) against plain reference implementations: snapping
// accumulates in a per-thread dense scratch and the table indexes its
// per-anchor lists by AnchorId, and both must give bit-identical results to
// an ordered map keyed by anchor, on any thread.

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/anchor_distribution.h"
#include "floorplan/office_generator.h"
#include "graph/anchor_points.h"
#include "graph/graph_builder.h"
#include "query/query_engine.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// The snapping rule with an ordered map, as FromParticles was first
// written: every anchor a particle snaps to gets an entry (zero-mass ones
// included) and an all-zero total gives an empty distribution.
std::vector<std::pair<AnchorId, double>> MapReference(
    const AnchorPointIndex& index, const ParticleSoA& particles) {
  std::map<AnchorId, double> mass;
  double total = 0.0;
  for (size_t i = 0; i < particles.size(); ++i) {
    const Particle p = particles.Get(i);
    mass[index.NearestOnEdge(p.loc)] += p.weight;
    total += p.weight;
  }
  std::vector<std::pair<AnchorId, double>> out;
  if (total <= 0.0) {
    return out;
  }
  for (const auto& [anchor, m] : mass) {
    out.emplace_back(anchor, m / total);
  }
  return out;
}

// Exact equality, not approximate: == on doubles compares bits except for
// signed zeros and NaNs, neither of which snapping produces here.
void ExpectSameEntries(const std::vector<std::pair<AnchorId, double>>& got,
                       const std::vector<std::pair<AnchorId, double>>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << label << " entry " << i;
    EXPECT_EQ(got[i].second, want[i].second) << label << " entry " << i;
  }
}

class SnapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = GenerateOffice(OfficeConfig{}).value();
    graph_ = BuildWalkingGraph(plan_).value();
    coarse_ = std::make_unique<AnchorPointIndex>(
        AnchorPointIndex::Build(graph_, plan_, 1.0));
    fine_ = std::make_unique<AnchorPointIndex>(
        AnchorPointIndex::Build(graph_, plan_, 0.25));
  }

  // `n` particles on random edges with weights drawn from [0, 1), every
  // `zero_every`-th one weightless (0 = none).
  ParticleSoA RandomParticles(Rng& rng, int n, int zero_every) {
    ParticleSoA particles;
    particles.Resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Particle p;
      p.loc.edge = static_cast<EdgeId>(rng.UniformInt(0, graph_.num_edges() - 1));
      p.loc.offset = rng.Uniform01() * graph_.edge(p.loc.edge).length;
      p.weight = zero_every > 0 && i % zero_every == 0 ? 0.0 : rng.Uniform01();
      particles.Set(static_cast<size_t>(i), p);
    }
    return particles;
  }

  FloorPlan plan_;
  WalkingGraph graph_;
  std::unique_ptr<AnchorPointIndex> coarse_;
  std::unique_ptr<AnchorPointIndex> fine_;
};

TEST_F(SnapTest, MatchesMapReferenceWithZeroWeightParticles) {
  ASSERT_LT(coarse_->num_anchors(), fine_->num_anchors());
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const ParticleSoA particles = RandomParticles(rng, 64, 3);
    ExpectSameEntries(
        AnchorDistribution::FromParticles(*coarse_, particles).entries(),
        MapReference(*coarse_, particles), "trial " + std::to_string(trial));
  }
  // A particle alone on its anchor with no weight still gets a
  // zero-probability entry, as the map gives it.
  ParticleSoA particles = RandomParticles(rng, 2, 0);
  particles.weight[0] = 0.0;
  particles.weight[1] = 1.0;
  const AnchorDistribution dist =
      AnchorDistribution::FromParticles(*coarse_, particles);
  ExpectSameEntries(dist.entries(), MapReference(*coarse_, particles),
                    "zero-weight anchor");
}

TEST_F(SnapTest, AllZeroTotalIsEmpty) {
  Rng rng(12);
  const ParticleSoA particles = RandomParticles(rng, 64, 1);
  EXPECT_TRUE(AnchorDistribution::FromParticles(*coarse_, particles).empty());
  EXPECT_TRUE(AnchorDistribution::FromParticles(*coarse_, {}).empty());
  // The weightless call left the scratch clean: a later call still matches.
  const ParticleSoA next = RandomParticles(rng, 64, 0);
  ExpectSameEntries(AnchorDistribution::FromParticles(*coarse_, next).entries(),
                    MapReference(*coarse_, next), "after all-zero call");
}

TEST_F(SnapTest, ManyParticlesOnOneAnchor) {
  Rng rng(13);
  ParticleSoA particles = RandomParticles(rng, 1000, 0);
  std::fill(particles.edge.begin(), particles.edge.end(), particles.edge[0]);
  std::fill(particles.offset.begin(), particles.offset.end(),
            particles.offset[0]);
  const AnchorDistribution dist =
      AnchorDistribution::FromParticles(*coarse_, particles);
  ASSERT_EQ(dist.support_size(), 1u);
  ExpectSameEntries(dist.entries(), MapReference(*coarse_, particles),
                    "one anchor");
}

TEST_F(SnapTest, AlternatingIndexSizesOnOneThread) {
  Rng rng(14);
  for (int trial = 0; trial < 40; ++trial) {
    const AnchorPointIndex& index = trial % 2 == 0 ? *coarse_ : *fine_;
    const ParticleSoA particles = RandomParticles(rng, 64, 5);
    ExpectSameEntries(
        AnchorDistribution::FromParticles(index, particles).entries(),
        MapReference(index, particles),
        (trial % 2 == 0 ? "coarse" : "fine") + std::to_string(trial));
  }
}

TEST_F(SnapTest, FourThreadsAtOnce) {
  constexpr int kThreads = 4;
  constexpr int kTrials = 60;
  // Inputs and references are built up front; the threads only snap.
  std::vector<ParticleSoA> inputs;
  std::vector<std::vector<std::pair<AnchorId, double>>> want;
  Rng rng(15);
  for (int i = 0; i < kThreads * kTrials; ++i) {
    const AnchorPointIndex& index = i % 3 == 0 ? *fine_ : *coarse_;
    inputs.push_back(RandomParticles(rng, 64, 7));
    want.push_back(MapReference(index, inputs.back()));
  }
  std::vector<AnchorDistribution> got(inputs.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kTrials; ++k) {
        const size_t i = static_cast<size_t>(k * kThreads + t);
        got[i] = AnchorDistribution::FromParticles(
            i % 3 == 0 ? *fine_ : *coarse_, inputs[i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    ExpectSameEntries(got[i].entries(), want[i],
                      "input " + std::to_string(i));
  }
}

// Snapping runs on InferBatch's pool workers: 4 inference threads must
// give the 1-thread distributions bit for bit.
TEST(SnapInferenceTest, FourInferenceThreadsMatchOne) {
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 21;
  auto sim = Simulation::Create(config).value();
  for (int t = 0; t < 150; ++t) {
    sim->Step();
  }
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (int threads : {1, 4}) {
    EngineConfig engine_config;
    engine_config.num_threads = threads;
    engines.push_back(std::make_unique<QueryEngine>(
        &sim->graph(), &sim->plan(), &sim->anchors(), &sim->anchor_graph(),
        &sim->deployment(), &sim->deployment_graph(), &sim->collector(),
        engine_config));
  }
  const std::vector<ObjectId> objects = sim->collector().KnownObjects();
  ASSERT_GT(objects.size(), 10u);
  for (int64_t now = sim->now(); now < sim->now() + 3; ++now) {
    engines[0]->InferBatch(objects, now);
    engines[1]->InferBatch(objects, now);
    for (ObjectId o : objects) {
      const AnchorDistribution* one = engines[0]->table().Distribution(o);
      const AnchorDistribution* four = engines[1]->table().Distribution(o);
      ASSERT_NE(one, nullptr);
      ASSERT_NE(four, nullptr);
      ExpectSameEntries(four->entries(), one->entries(),
                        "object " + std::to_string(o));
    }
  }
}

using Entries = std::vector<std::pair<ObjectId, double>>;

TEST(AnchorTableLayoutTest, SetResetEraseClear) {
  AnchorObjectTable table;
  table.Set(7, AnchorDistribution::FromWeights({{3, 1.0}, {300, 3.0}}));
  table.Set(2, AnchorDistribution::FromWeights({{3, 1.0}}));
  EXPECT_EQ(table.AtAnchor(3), (Entries{{2, 1.0}, {7, 0.25}}));
  EXPECT_EQ(table.AtAnchor(300), (Entries{{7, 0.75}}));
  EXPECT_TRUE(table.AtAnchor(299).empty());
  // Anchor ids past any ever set, and negative ones, read empty.
  EXPECT_TRUE(table.AtAnchor(301).empty());
  EXPECT_TRUE(table.AtAnchor(1 << 30).empty());
  EXPECT_TRUE(table.AtAnchor(-1).empty());

  // Re-Set replaces the object's entries everywhere, lists stay sorted.
  table.Set(7, AnchorDistribution::FromWeights({{0, 1.0}, {3, 1.0}}));
  EXPECT_EQ(table.AtAnchor(3), (Entries{{2, 1.0}, {7, 0.5}}));
  EXPECT_EQ(table.AtAnchor(0), (Entries{{7, 0.5}}));
  EXPECT_TRUE(table.AtAnchor(300).empty());
  table.Set(1, AnchorDistribution::FromWeights({{3, 1.0}}));
  EXPECT_EQ(table.AtAnchor(3), (Entries{{1, 1.0}, {2, 1.0}, {7, 0.5}}));
  EXPECT_EQ(table.Objects(), (std::vector<ObjectId>{1, 2, 7}));

  table.Erase(2);
  table.Erase(42);  // Unknown: no effect.
  EXPECT_EQ(table.AtAnchor(3), (Entries{{1, 1.0}, {7, 0.5}}));
  EXPECT_EQ(table.Distribution(2), nullptr);
  EXPECT_EQ(table.num_objects(), 2u);

  table.Clear();
  EXPECT_EQ(table.num_objects(), 0u);
  EXPECT_TRUE(table.AtAnchor(0).empty());
  EXPECT_TRUE(table.AtAnchor(3).empty());
  EXPECT_TRUE(table.Objects().empty());
  // A cleared table refills like a new one.
  table.Set(5, AnchorDistribution::FromWeights({{3, 1.0}}));
  EXPECT_EQ(table.AtAnchor(3), (Entries{{5, 1.0}}));
  EXPECT_TRUE(table.AtAnchor(300).empty());
}

}  // namespace
}  // namespace ipqs
