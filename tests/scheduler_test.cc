// QueryScheduler: batched serving must be invisible in the answers.
// Every test compares against plain per-query QueryEngine evaluation on a
// twin simulation — same seeds, same faulted reading stream — so any
// divergence is the scheduler's fault, not the world's.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "query/query_scheduler.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

SimulationConfig BaseConfig(int num_threads) {
  SimulationConfig config;
  config.trace.num_objects = 30;
  config.seed = 11;
  config.num_threads = num_threads;
  // Faults on: batching must stay exact on a degraded stream too.
  config.faults.seed = 5;
  config.faults.dropout_rate = 0.1;
  config.faults.duplicate_rate = 0.1;
  config.faults.reorder_rate = 0.05;
  return config;
}

std::unique_ptr<Simulation> FreshSim(const SimulationConfig& config) {
  std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
  sim->Run(60);
  return sim;
}

// A mixed range/kNN batch drawn from the sim's query stream; every third
// slot repeats an earlier query so dedup has work to do.
std::vector<BatchQuery> MixedBatch(Simulation& sim, int n) {
  std::vector<BatchQuery> batch;
  for (int i = 0; i < n; ++i) {
    if (i >= 3 && i % 3 == 0) {
      batch.push_back(batch[i - 3]);
      continue;
    }
    if (i % 2 == 0) {
      batch.push_back(BatchQuery::Range(
          Experiment::RandomWindow(sim.plan(), 0.05, sim.query_rng())));
    } else {
      batch.push_back(BatchQuery::Knn(
          Experiment::RandomIndoorPoint(sim.anchors(), sim.query_rng()), 3));
    }
  }
  return batch;
}

void ExpectMatchesSerial(const BatchAnswer& got, const BatchQuery& q,
                         QueryEngine& serial_engine, int64_t now) {
  if (q.kind == BatchQuery::Kind::kRange) {
    const QueryResult want = serial_engine.EvaluateRange(q.window, now);
    EXPECT_EQ(got.range.objects, want.objects);
    EXPECT_EQ(got.range.quality, want.quality);
  } else {
    const KnnResult want = serial_engine.EvaluateKnn(q.point, q.k, now);
    EXPECT_EQ(got.knn.result.objects, want.result.objects);
    EXPECT_EQ(got.knn.result.quality, want.result.quality);
    EXPECT_EQ(got.knn.total_probability, want.total_probability);
    EXPECT_EQ(got.knn.anchors_searched, want.anchors_searched);
  }
}

class SchedulerThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerThreadsTest, ShuffledBatchMatchesSerialByteForByte) {
  // One sim serves the batch (shuffled, through the scheduler), its twin
  // answers the same queries one at a time in the original order. Every
  // answer must agree bit-for-bit: batching and batch order change how
  // much work is done, never what any query answers.
  std::unique_ptr<Simulation> batch_sim = FreshSim(BaseConfig(GetParam()));
  std::unique_ptr<Simulation> serial_sim = FreshSim(BaseConfig(1));
  const int64_t now = batch_sim->now();
  ASSERT_EQ(now, serial_sim->now());

  const std::vector<BatchQuery> batch = MixedBatch(*batch_sim, 12);
  std::vector<BatchQuery> shuffled = batch;
  std::reverse(shuffled.begin(), shuffled.end());

  QueryScheduler scheduler(&batch_sim->pf_engine());
  const std::vector<BatchAnswer> answers = scheduler.EvaluateBatch(shuffled, now);
  ASSERT_EQ(answers.size(), shuffled.size());
  for (size_t i = 0; i < shuffled.size(); ++i) {
    ExpectMatchesSerial(answers[i], shuffled[i], serial_sim->pf_engine(), now);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulerThreadsTest,
                         ::testing::Values(1, 4, 8));

TEST(SchedulerTest, DuplicateQueriesCollapseToOneEvaluation) {
  obs::MetricsRegistry registry;
  SimulationConfig config = BaseConfig(1);
  config.metrics = &registry;
  std::unique_ptr<Simulation> sim = FreshSim(config);
  const int64_t now = sim->now();

  const Rect window =
      Experiment::RandomWindow(sim->plan(), 0.05, sim->query_rng());
  const std::vector<BatchQuery> batch(6, BatchQuery::Range(window));
  QueryScheduler scheduler(&sim->pf_engine());
  const std::vector<BatchAnswer> answers = scheduler.EvaluateBatch(batch, now);

  EXPECT_EQ(registry.GetCounter("pf.qps.queries")->Value(), 6);
  EXPECT_EQ(registry.GetCounter("pf.qps.duplicate_queries")->Value(), 5);
  EXPECT_EQ(registry.GetCounter("pf.qps.batches")->Value(), 1);
  for (const BatchAnswer& a : answers) {
    EXPECT_EQ(a.range.objects, answers[0].range.objects);
  }
}

TEST(SchedulerTest, DeadlineBudgetChargedPerUniqueObjectNotPerQuery) {
  // Measure what one full-quality kNN query costs on a twin...
  std::unique_ptr<Simulation> probe = FreshSim(BaseConfig(1));
  const int64_t now = probe->now();
  Rng rng(7);
  const Point q = Experiment::RandomIndoorPoint(probe->anchors(), rng);
  const KnnResult want = probe->pf_engine().EvaluateKnn(q, 3, now);
  const int64_t cost = probe->pf_engine().stats().filter_seconds;
  ASSERT_GT(cost, 0);

  // ... then serve EIGHT copies of it under a deadline whose work budget
  // covers ~1.5 evaluations. The scheduler charges the union of candidate
  // sets once, so the batch stays at full quality; a scheduler that
  // charged per query (8x the cost) would have to degrade.
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig(1));
  const double per_ms = sim->config().degrade.filter_seconds_per_ms;
  const int64_t deadline_ms =
      static_cast<int64_t>(1.5 * static_cast<double>(cost) / per_ms) + 1;
  const std::vector<BatchQuery> batch(8, BatchQuery::Knn(q, 3));
  QueryScheduler scheduler(&sim->pf_engine());
  const std::vector<BatchAnswer> answers =
      scheduler.EvaluateBatch(batch, now, deadline_ms);
  for (const BatchAnswer& a : answers) {
    EXPECT_EQ(a.knn.result.quality, QualityLevel::kFull);
    EXPECT_EQ(a.knn.result.objects, want.result.objects);
    EXPECT_EQ(a.knn.total_probability, want.total_probability);
  }
  // And the engine really did the inference work only once.
  EXPECT_EQ(sim->pf_engine().stats().filter_seconds, cost);
}

TEST(SchedulerTest, StageTimersRecordOncePerPassOnBothEntryPoints) {
  // Batched and serial serving run the same pipeline, so both record the
  // prune and evaluate stage histograms: a batch leaves observations in
  // each, and a serial call adds exactly one to each.
  obs::MetricsRegistry registry;
  SimulationConfig config = BaseConfig(1);
  config.metrics = &registry;
  std::unique_ptr<Simulation> sim = FreshSim(config);
  const int64_t now = sim->now();
  const obs::Histogram* prune = registry.GetHistogram("pf.stage.prune_ns");
  const obs::Histogram* evaluate =
      registry.GetHistogram("pf.stage.evaluate_ns");

  QueryScheduler scheduler(&sim->pf_engine());
  scheduler.EvaluateBatch(MixedBatch(*sim, 8), now);
  const int64_t batch_prunes = prune->snapshot().count;
  const int64_t batch_evaluates = evaluate->snapshot().count;
  EXPECT_GT(batch_prunes, 0);
  EXPECT_GT(batch_evaluates, 0);

  sim->pf_engine().EvaluateRange(
      Experiment::RandomWindow(sim->plan(), 0.05, sim->query_rng()), now);
  EXPECT_EQ(prune->snapshot().count, batch_prunes + 1);
  EXPECT_EQ(evaluate->snapshot().count, batch_evaluates + 1);

  sim->pf_engine().EvaluateKnn(
      Experiment::RandomIndoorPoint(sim->anchors(), sim->query_rng()), 3, now);
  EXPECT_EQ(prune->snapshot().count, batch_prunes + 2);
  EXPECT_EQ(evaluate->snapshot().count, batch_evaluates + 2);
}

}  // namespace
}  // namespace ipqs
