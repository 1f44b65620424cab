// Cross-cutting invariants checked on randomized worlds: these encode the
// probability-theoretic contracts of the query evaluators and the
// geometric soundness of the inference pipeline.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "filter/resampler.h"
#include "particle_sets.h"
#include "query/uncertain_region.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

class PropertyFixture : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SimulationConfig config;
    config.trace.num_objects = 25;
    config.seed = GetParam();
    sim_ = Simulation::Create(config).value();
    sim_->Run(220);
  }

  std::unique_ptr<Simulation> sim_;
};

TEST_P(PropertyFixture, RangeProbabilityBoundedPerObject) {
  for (int i = 0; i < 10; ++i) {
    const Rect w =
        Experiment::RandomWindow(sim_->plan(), 0.03, sim_->query_rng());
    const QueryResult res = sim_->pf_engine().EvaluateRange(w, sim_->now());
    for (const auto& [id, p] : res.objects) {
      EXPECT_GE(p, 0.0) << "object " << id;
      EXPECT_LE(p, 1.0 + 1e-9) << "object " << id;
    }
  }
}

TEST_P(PropertyFixture, RangeMonotoneInWindow) {
  // A window contained in another can only lose probability.
  const Point c = sim_->deployment().reader(7).pos;
  const int64_t now = sim_->now();
  const QueryResult small =
      sim_->pf_engine().EvaluateRange(Rect::FromCenter(c, 6, 6), now);
  const QueryResult big =
      sim_->pf_engine().EvaluateRange(Rect::FromCenter(c, 14, 14), now);
  for (const auto& [id, p] : small.objects) {
    EXPECT_LE(p, big.ProbabilityOf(id) + 1e-9) << "object " << id;
  }
}

TEST_P(PropertyFixture, RangePartitionAdditive) {
  // Splitting a window along a line: the halves' probabilities sum to the
  // whole (per object), since every anchor/ratio contribution lands in
  // exactly one half. Checked with pruning off: every window then
  // evaluates the same (unrestricted) candidate set, isolating the
  // evaluator's additivity. With pruning on the halves may legitimately
  // drop an object the whole window keeps — its uncertain region misses
  // the half, so the half's answer excludes the sliver of inferred mass
  // that leaked past the region boundary (see the pruning check below).
  const Point c = sim_->deployment().reader(11).pos;
  const Rect whole = Rect::FromCenter(c, 12, 10);
  Rect left = whole;
  left.max_x = c.x;
  Rect right = whole;
  right.min_x = c.x;
  const int64_t now = sim_->now();

  EngineConfig config = sim_->pf_engine().config();
  config.use_pruning = false;
  QueryEngine engine(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                     &sim_->anchor_graph(), &sim_->deployment(),
                     &sim_->deployment_graph(), &sim_->collector(), config);
  const QueryResult rw = engine.EvaluateRange(whole, now);
  const QueryResult rl = engine.EvaluateRange(left, now);
  const QueryResult rr = engine.EvaluateRange(right, now);
  for (const auto& [id, p] : rw.objects) {
    EXPECT_NEAR(p, rl.ProbabilityOf(id) + rr.ProbabilityOf(id), 1e-6)
        << "object " << id;
  }

  // With pruning on, each half answers from its own candidate set, so the
  // halves never report MORE than the unpruned sum.
  const QueryResult pl = sim_->pf_engine().EvaluateRange(left, now);
  const QueryResult pr = sim_->pf_engine().EvaluateRange(right, now);
  for (const auto& [id, p] : rw.objects) {
    EXPECT_LE(pl.ProbabilityOf(id) + pr.ProbabilityOf(id), p + 1e-6)
        << "object " << id;
  }
}

TEST_P(PropertyFixture, WholeFloorHasAllMass) {
  // A window covering the whole bounding box must contain every tracked
  // object with probability ~1.
  const Rect everything = sim_->plan().BoundingBox();
  const QueryResult res =
      sim_->pf_engine().EvaluateRange(everything, sim_->now());
  for (ObjectId id : sim_->collector().KnownObjects()) {
    EXPECT_NEAR(res.ProbabilityOf(id), 1.0, 1e-6) << "object " << id;
  }
}

TEST_P(PropertyFixture, KnnResultGrowsWithK) {
  const Point q = Experiment::RandomIndoorPoint(sim_->anchors(),
                                                sim_->query_rng());
  const int64_t now = sim_->now();
  double prev_mass = 0.0;
  size_t prev_size = 0;
  for (int k = 1; k <= 5; ++k) {
    const KnnResult res = sim_->pf_engine().EvaluateKnn(q, k, now);
    EXPECT_GE(res.total_probability, prev_mass - 1e-9);
    EXPECT_GE(res.result.objects.size(), prev_size);
    prev_mass = res.total_probability;
    prev_size = res.result.objects.size();
  }
}

TEST_P(PropertyFixture, KnnMassReachesKWhenPossible) {
  const int64_t now = sim_->now();
  // Total available mass = number of tracked objects.
  const double available =
      static_cast<double>(sim_->collector().KnownObjects().size());
  const Point q = sim_->deployment().reader(3).pos;
  for (int k : {1, 3, 8}) {
    const KnnResult res = sim_->pf_engine().EvaluateKnn(q, k, now);
    if (available >= k) {
      EXPECT_GE(res.total_probability, static_cast<double>(k) - 1e-6);
    }
  }
}

TEST_P(PropertyFixture, FilterSupportInsideUncertainRegion) {
  // The particle cloud can never outrun the uncertain region (whose radius
  // uses u_max = 1.5 m/s while particle speeds are ~N(1, 0.1) plus
  // jitter): pruning soundness depends on this.
  const int64_t now = sim_->now();
  for (ObjectId id : sim_->collector().KnownObjects()) {
    const auto last = sim_->collector().LastReading(id);
    ASSERT_TRUE(last.has_value());
    const UncertainRegion ur = ComputeUncertainRegion(
        sim_->deployment(), id, *last, now, sim_->config().max_speed);
    const AnchorDistribution* dist = sim_->pf_engine().InferObject(id, now);
    ASSERT_NE(dist, nullptr);
    for (const auto& [anchor, p] : dist->entries()) {
      const double d = Distance(sim_->anchors().anchor(anchor).pos, ur.center);
      // Slack: anchor snapping (1 m) + roughening jitter.
      EXPECT_LE(d, ur.radius + 2.0)
          << "object " << id << " anchor " << anchor << " p=" << p;
    }
  }
}

TEST_P(PropertyFixture, SymbolicSupportInsideUncertainRegion) {
  const int64_t now = sim_->now();
  for (ObjectId id : sim_->collector().KnownObjects()) {
    const auto last = sim_->collector().LastReading(id);
    const UncertainRegion ur = ComputeUncertainRegion(
        sim_->deployment(), id, *last, now, sim_->config().max_speed);
    const AnchorDistribution* dist = sim_->sm_engine().InferObject(id, now);
    ASSERT_NE(dist, nullptr);
    for (const auto& [anchor, _] : dist->entries()) {
      const double d = Distance(sim_->anchors().anchor(anchor).pos, ur.center);
      EXPECT_LE(d, ur.radius + 1.0) << "object " << id;
    }
  }
}

TEST_P(PropertyFixture, EngineAnswersAreReproducibleAcrossRuns) {
  // Two identically-seeded worlds answer identically (full determinism).
  SimulationConfig config;
  config.trace.num_objects = 25;
  config.seed = GetParam();
  auto other = Simulation::Create(config).value();
  other->Run(220);

  const Rect w = Rect::FromCenter(sim_->deployment().reader(5).pos, 10, 10);
  const QueryResult a = sim_->pf_engine().EvaluateRange(w, sim_->now());
  const QueryResult b = other->pf_engine().EvaluateRange(w, other->now());
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (const auto& [id, p] : a.objects) {
    EXPECT_DOUBLE_EQ(p, b.ProbabilityOf(id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyFixture,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Systematic resampling (Algorithm 1) as a mathematical object: the
// low-variance guarantees that make it the paper's default scheme.

// Survivors per source particle of a TaggedParticles set.
std::vector<int> SurvivorCounts(const ParticleSoA& resampled, size_t n) {
  std::vector<int> counts(n, 0);
  for (const EdgeId e : resampled.edge) {
    ++counts[static_cast<size_t>(e)];
  }
  return counts;
}

TEST(SystematicResamplingProperty, CountsWithinOneOfProportional) {
  // The defining guarantee of systematic resampling: particle i with
  // normalized weight w_i receives either floor(N*w_i) or ceil(N*w_i)
  // copies — never further from proportional than one particle. Checked
  // across seeds and weight shapes.
  const std::vector<std::vector<double>> shapes = {
      {0.5, 0.3, 0.15, 0.05},
      {0.01, 0.01, 0.01, 0.97},
      {0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125},
      {0.4, 0.0, 0.6},
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::vector<double>& weights : shapes) {
      const int n = 64;
      // n particles cycling through the weight shape (renormalized before
      // the kernel runs).
      std::vector<double> cycled;
      for (int i = 0; i < n; ++i) {
        cycled.push_back(weights[i % weights.size()]);
      }
      ParticleSoA particles = TaggedParticles(cycled);
      double total = 0.0;
      for (const double w : cycled) {
        total += w;
      }
      Rng rng(seed);
      NormalizeAndResample(ResamplingScheme::kSystematic, &particles, rng);
      const std::vector<int> counts = SurvivorCounts(particles, cycled.size());
      for (size_t i = 0; i < cycled.size(); ++i) {
        const double expected = n * cycled[i] / total;
        EXPECT_GE(counts[i], static_cast<int>(std::floor(expected)))
            << "seed " << seed << " particle " << i;
        EXPECT_LE(counts[i], static_cast<int>(std::ceil(expected)))
            << "seed " << seed << " particle " << i;
      }
    }
  }
}

TEST(SystematicResamplingProperty, PermutedWeightsKeepCountsWithinOne) {
  // Reordering the particle set must not change any particle's survival
  // count by more than one: the count depends on where the weight lands in
  // the CDF, and systematic selection pins it to floor/ceil of N*w either
  // way. (Exact invariance is impossible — the single uniform draw lands
  // differently in the shifted CDF.)
  std::vector<double> weights;
  Rng weight_rng(7);
  for (int i = 0; i < 50; ++i) {
    weights.push_back(weight_rng.Uniform(0.001, 1.0));
  }
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ParticleSoA forward = TaggedParticles(weights);
    ParticleSoA reversed = TaggedParticles(weights);
    std::reverse(reversed.edge.begin(), reversed.edge.end());
    std::reverse(reversed.weight.begin(), reversed.weight.end());

    Rng rng_a(seed);
    Rng rng_b(seed);
    NormalizeAndResample(ResamplingScheme::kSystematic, &forward, rng_a);
    NormalizeAndResample(ResamplingScheme::kSystematic, &reversed, rng_b);
    const std::vector<int> ca = SurvivorCounts(forward, weights.size());
    const std::vector<int> cb = SurvivorCounts(reversed, weights.size());
    for (size_t i = 0; i < weights.size(); ++i) {
      EXPECT_LE(std::abs(ca[i] - cb[i]), 1)
          << "seed " << seed << " particle " << i;
    }
  }
}

TEST(SystematicResamplingProperty, ZeroWeightNeverSelectedAnyScheme) {
  // A dead particle (weight zero) must never survive resampling, under any
  // scheme and any seed.
  for (const ResamplingScheme scheme :
       {ResamplingScheme::kSystematic, ResamplingScheme::kStratified,
        ResamplingScheme::kMultinomial, ResamplingScheme::kResidual}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      std::vector<double> weights(32, 0.0);
      Rng weight_rng(seed);
      for (size_t i = 0; i < weights.size(); i += 2) {
        weights[i] = weight_rng.Uniform(0.01, 1.0);  // Odd indices stay 0.
      }
      ParticleSoA particles = TaggedParticles(weights);
      Rng rng(seed * 31);
      NormalizeAndResample(scheme, &particles, rng);
      ASSERT_EQ(particles.size(), weights.size()) << ToString(scheme);
      for (const EdgeId e : particles.edge) {
        EXPECT_NE(static_cast<size_t>(e) % 2, 1u)
            << ToString(scheme) << " resurrected a zero-weight particle";
      }
    }
  }
}

}  // namespace
}  // namespace ipqs
