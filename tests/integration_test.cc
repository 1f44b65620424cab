// Cross-module integration and property tests: the full pipeline from raw
// readings to query answers, plus the paper's headline qualitative claims
// on a reduced protocol (small enough for CI, large enough to be stable).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include <gtest/gtest.h>

#include "filter/resampler.h"
#include "particle_sets.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

ExperimentConfig SmallProtocol(uint64_t seed) {
  ExperimentConfig config;
  config.sim.trace.num_objects = 60;
  config.sim.seed = seed;
  config.warmup_seconds = 240;
  config.num_timestamps = 8;
  config.seconds_between_timestamps = 15;
  config.range_queries_per_timestamp = 40;
  config.knn_query_points = 12;
  return config;
}

TEST(PaperClaims, ParticleFilterBeatsSymbolicOnRangeKl) {
  Experiment experiment(SmallProtocol(21));
  const auto result = experiment.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  // Figure 9's headline: PF KL divergence significantly below SM.
  EXPECT_LT(result->kl_pf, result->kl_sm)
      << "PF=" << result->kl_pf << " SM=" << result->kl_sm;
}

TEST(PaperClaims, ParticleFilterBeatsSymbolicOnKnnHitRate) {
  Experiment experiment(SmallProtocol(22));
  const auto result = experiment.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  // Figure 10's headline: PF hit rate above SM.
  EXPECT_GT(result->hit_pf, result->hit_sm)
      << "PF=" << result->hit_pf << " SM=" << result->hit_sm;
}

TEST(PaperClaims, MoreParticlesDoNotHurtAccuracy) {
  // Figure 11: accuracy with very few particles is poor and saturates as
  // the particle set grows.
  ExperimentConfig tiny = SmallProtocol(23);
  tiny.eval_knn = false;
  tiny.sim.filter.num_particles = 2;
  ExperimentConfig big = SmallProtocol(23);
  big.eval_knn = false;
  big.sim.filter.num_particles = 128;

  const auto tiny_result = Experiment(tiny).Run();
  const auto big_result = Experiment(big).Run();
  ASSERT_TRUE(tiny_result.ok());
  ASSERT_TRUE(big_result.ok());
  EXPECT_LT(big_result->kl_pf, tiny_result->kl_pf);
  EXPECT_GE(big_result->top2, tiny_result->top2 - 0.05);
}

// ---------------------------------------------------------------------------
// Golden end-to-end scenario: a small pinned world where the exact query
// answers are frozen. Any change to the reading pipeline, the filter's
// consumption order, or the RNG layering shows up here as a diff, not as a
// silent accuracy drift. The probabilities are a function of the
// repository's own generator and distributions (common/rng.h), not of the
// standard library; regenerate by running this test with
// IPQS_PRINT_GOLDEN=1 in the environment and pasting the output.
TEST(GoldenScenario, SmallWorldAnswersAreFrozen) {
  SimulationConfig config;
  config.office.num_wings = 1;
  config.office.rooms_per_side = 3;
  config.num_readers = 4;
  config.trace.num_objects = 8;
  config.seed = 20130326;  // EDBT 2013.
  auto sim = Simulation::Create(config).value();
  sim->Run(180);
  const int64_t now = sim->now();

  // Every inferred distribution (the APtoObjHT rows) sums to 1.
  const std::vector<ObjectId> known = sim->collector().KnownObjects();
  ASSERT_FALSE(known.empty());
  for (ObjectId id : known) {
    const AnchorDistribution* dist = sim->pf_engine().InferObject(id, now);
    ASSERT_NE(dist, nullptr);
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9) << "object " << id;
  }

  const Rect window = Rect::FromCenter(sim->deployment().reader(1).pos,
                                       16, 16);
  const QueryResult range = sim->pf_engine().EvaluateRange(window, now);
  const Point q = sim->deployment().reader(2).pos;
  const KnnResult knn = sim->pf_engine().EvaluateKnn(q, 3, now);

  if (std::getenv("IPQS_PRINT_GOLDEN") != nullptr) {
    std::printf("known objects: %zu\n", known.size());
    for (const auto& [id, p] : range.objects) {
      std::printf("range object=%d p=%.17g\n", id, p);
    }
    for (const auto& [id, p] : knn.result.objects) {
      std::printf("knn object=%d p=%.17g\n", id, p);
    }
    std::printf("knn total=%.17g searched=%d\n", knn.total_probability,
                knn.anchors_searched);
  }

  // ---- Golden values (regenerate as described above) ----
  EXPECT_EQ(known.size(), 8u);

  const std::vector<std::pair<ObjectId, double>> golden_range = {
      {0, 0.48708496093749992}, {7, 0.86201171874999993},
      {1, 0.93867187500000004}, {4, 1.0},
      {3, 0.484375},
  };
  ASSERT_EQ(range.objects.size(), golden_range.size());
  for (size_t i = 0; i < golden_range.size(); ++i) {
    EXPECT_EQ(range.objects[i].first, golden_range[i].first) << "rank " << i;
    EXPECT_EQ(range.objects[i].second, golden_range[i].second) << "rank " << i;
  }

  const std::vector<std::pair<ObjectId, double>> golden_knn = {
      {0, 0.25}, {3, 1.0},      {1, 0.734375},
      {6, 1.0},  {7, 0.03125},  {4, 0.703125},
  };
  ASSERT_EQ(knn.result.objects.size(), golden_knn.size());
  for (size_t i = 0; i < golden_knn.size(); ++i) {
    EXPECT_EQ(knn.result.objects[i].first, golden_knn[i].first)
        << "rank " << i;
    EXPECT_EQ(knn.result.objects[i].second, golden_knn[i].second)
        << "rank " << i;
  }
  EXPECT_EQ(knn.total_probability, 3.71875);
  EXPECT_EQ(knn.anchors_searched, 17);
}

TEST(PruningSoundness, TrueRangeObjectsAlwaysSurvivePruning) {
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 31;
  auto sim = Simulation::Create(config).value();
  sim->Run(200);

  for (int round = 0; round < 10; ++round) {
    sim->Run(10);
    const Rect window =
        Experiment::RandomWindow(sim->plan(), 0.02, sim->query_rng());
    const auto truth = GroundTruth::RangeResult(sim->true_states(), window);
    const auto candidates =
        FilterRangeCandidates(sim->collector(), sim->deployment(), {window},
                              sim->now(), config.max_speed);
    for (ObjectId id : truth) {
      if (sim->collector().History(id) == nullptr) {
        continue;  // Never detected: invisible to the system by design.
      }
      EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), id) !=
                  candidates.end())
          << "true object " << id << " pruned at t=" << sim->now();
    }
  }
}

TEST(PruningSoundness, PrunedRangeAnswersMatchUnprunedAcrossWorlds) {
  // Pruning may only drop objects that score nothing in the window. The
  // range evaluator credits a room's whole mass (scaled by the overlap) and
  // a hallway's full width, so an uncertain region that misses the window
  // can still reach a room the window clips; pruning against the bare
  // window dropped such objects in about half of these windows. Several
  // worlds and a window at every reader, so the check does not rest on one
  // realization of the random streams.
  int windows = 0;
  for (const uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = seed;
    auto sim = Simulation::Create(config).value();
    sim->Run(300);
    const int64_t now = sim->now();
    const auto make_engine = [&](bool use_pruning) {
      EngineConfig engine;
      engine.num_threads = 1;
      engine.use_cache = false;
      engine.use_pruning = use_pruning;
      engine.seed = 99;
      return QueryEngine(&sim->graph(), &sim->plan(), &sim->anchors(),
                         &sim->anchor_graph(), &sim->deployment(),
                         &sim->deployment_graph(), &sim->collector(), engine);
    };
    for (const Reader& reader : sim->deployment().readers()) {
      const Rect window = Rect::FromCenter(reader.pos, 14, 14);
      QueryEngine pruned = make_engine(true);
      QueryEngine unpruned = make_engine(false);
      const QueryResult with = pruned.EvaluateRange(window, now);
      const QueryResult without = unpruned.EvaluateRange(window, now);
      ++windows;
      for (const auto& [object, p] : without.objects) {
        EXPECT_EQ(with.ProbabilityOf(object), p)
            << "seed " << seed << " reader " << reader.id << " object "
            << object;
      }
    }
  }
  EXPECT_GT(windows, 100);
}

TEST(PruningEffectiveness, PruningShrinksCandidateSets) {
  SimulationConfig config;
  config.trace.num_objects = 60;
  config.seed = 33;
  auto sim = Simulation::Create(config).value();
  sim->Run(300);

  const Rect window =
      Experiment::RandomWindow(sim->plan(), 0.02, sim->query_rng());
  const auto candidates =
      FilterRangeCandidates(sim->collector(), sim->deployment(), {window},
                            sim->now(), config.max_speed);
  EXPECT_LT(candidates.size(), sim->collector().KnownObjects().size());
}

TEST(CacheConsistency, CachedEngineMatchesAccuracyOfUncached) {
  ExperimentConfig cached = SmallProtocol(24);
  cached.eval_knn = false;
  cached.range_queries_per_timestamp = 20;
  ExperimentConfig uncached = cached;
  uncached.sim.use_cache = false;

  const auto with_cache = Experiment(cached).Run();
  const auto without_cache = Experiment(uncached).Run();
  ASSERT_TRUE(with_cache.ok());
  ASSERT_TRUE(without_cache.ok());
  // Caching is a work optimization, not an accuracy change: KL stays in
  // the same ballpark (stochastic filtering => not bit-identical).
  EXPECT_NEAR(with_cache->kl_pf, without_cache->kl_pf, 0.25);
  // And it does save filter work.
  EXPECT_LT(with_cache->pf_stats.filter_seconds,
            without_cache->pf_stats.filter_seconds);
}

TEST(DistributionInvariants, AllInferredDistributionsNormalized) {
  SimulationConfig config;
  config.trace.num_objects = 30;
  config.seed = 37;
  auto sim = Simulation::Create(config).value();
  sim->Run(240);

  for (ObjectId id : sim->collector().KnownObjects()) {
    const AnchorDistribution* pf = sim->pf_engine().InferObject(id, sim->now());
    ASSERT_NE(pf, nullptr);
    EXPECT_NEAR(pf->TotalProbability(), 1.0, 1e-9);
    const AnchorDistribution* sm = sim->sm_engine().InferObject(id, sim->now());
    ASSERT_NE(sm, nullptr);
    EXPECT_NEAR(sm->TotalProbability(), 1.0, 1e-9);
  }
}

TEST(DistributionInvariants, KnnProbabilitiesBoundedPerObject) {
  SimulationConfig config;
  config.trace.num_objects = 30;
  config.seed = 39;
  auto sim = Simulation::Create(config).value();
  sim->Run(240);

  const Point q = Experiment::RandomIndoorPoint(sim->anchors(),
                                                sim->query_rng());
  const KnnResult res = sim->pf_engine().EvaluateKnn(q, 3, sim->now());
  for (const auto& [id, p] : res.result.objects) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-9) << "object " << id;
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweeps.

class ResamplerSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResamplerSizeSweep, InvariantsHoldForAnySize) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<double> weights(n);
  for (int i = 0; i < n; ++i) {
    weights[i] = rng.Uniform(0.001, 1.0);
  }
  ParticleSoA particles = TaggedParticles(weights);
  NormalizeAndResample(ResamplingScheme::kSystematic, &particles, rng);
  ASSERT_EQ(particles.size(), static_cast<size_t>(n));
  for (const double w : particles.weight) {
    EXPECT_DOUBLE_EQ(w, 1.0 / n);
  }
  EXPECT_NEAR(TotalWeight(particles), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResamplerSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 64, 257, 1024));

struct OfficeShape {
  int wings;
  int rooms_per_side;
};

class OfficeSweep : public ::testing::TestWithParam<OfficeShape> {};

TEST_P(OfficeSweep, WorldBuildsAndValidatesForAnyShape) {
  SimulationConfig config;
  config.office.num_wings = GetParam().wings;
  config.office.rooms_per_side = GetParam().rooms_per_side;
  config.num_readers =
      std::max(2, GetParam().wings * GetParam().rooms_per_side);
  config.trace.num_objects = 5;
  config.seed = 41;
  auto sim = Simulation::Create(config);
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_TRUE((*sim)->graph().Validate().ok());
  (*sim)->Run(60);
  // Objects must be trackable in any shape.
  const Point q =
      Experiment::RandomIndoorPoint((*sim)->anchors(), (*sim)->query_rng());
  const KnnResult res = (*sim)->pf_engine().EvaluateKnn(q, 1, (*sim)->now());
  EXPECT_GE(res.total_probability, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, OfficeSweep,
                         ::testing::Values(OfficeShape{1, 2}, OfficeShape{1, 6},
                                           OfficeShape{2, 3}, OfficeShape{3, 5},
                                           OfficeShape{4, 4},
                                           OfficeShape{5, 2}));

class ActivationRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(ActivationRangeSweep, DeploymentAndFilteringWorkAtAnyRange) {
  SimulationConfig config;
  config.activation_range = GetParam();
  config.trace.num_objects = 15;
  config.seed = 43;
  auto sim = Simulation::Create(config).value();
  sim->Run(240);
  ASSERT_GT(sim->collector().KnownObjects().size(), 0u);
  for (ObjectId id : sim->collector().KnownObjects()) {
    const AnchorDistribution* dist =
        sim->pf_engine().InferObject(id, sim->now());
    ASSERT_NE(dist, nullptr);
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, ActivationRangeSweep,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 2.5));

class ParticleCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParticleCountSweep, FilterRunsAtAnyParticleCount) {
  SimulationConfig config;
  config.filter.num_particles = GetParam();
  config.trace.num_objects = 10;
  config.seed = 47;
  auto sim = Simulation::Create(config).value();
  sim->Run(180);
  for (ObjectId id : sim->collector().KnownObjects()) {
    const AnchorDistribution* dist =
        sim->pf_engine().InferObject(id, sim->now());
    ASSERT_NE(dist, nullptr);
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9);
    EXPECT_LE(static_cast<int>(dist->support_size()), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ParticleCountSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512));

}  // namespace
}  // namespace ipqs
