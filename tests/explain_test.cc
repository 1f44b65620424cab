// QueryExplain provenance (obs/explain.h + query engine/scheduler
// threading). The tests force every rung of the degradation ladder and
// assert the record names the rung AND the budget reasoning that chose it;
// one full record is golden-pinned as JSON so the export format cannot
// drift silently. Collection never perturbing answers is pinned separately
// in determinism_test.cc.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/explain.h"
#include "obs/json.h"
#include "query/query_scheduler.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// Mirror of degrade_test.cc's recipes: pruning off for a stable candidate
// set, 1 filter-second per deadline-ms so deadlines read as budgets.
SimulationConfig BaseConfig() {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.num_readers = 10;
  config.seed = 123;
  config.use_pruning = false;
  config.degrade.filter_seconds_per_ms = 1.0;
  return config;
}

std::unique_ptr<Simulation> FreshSim(const SimulationConfig& config,
                                     int seconds = 60) {
  std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
  sim->Run(seconds);
  return sim;
}

Rect Window(const Simulation& sim, uint64_t salt) {
  Rng rng(salt);
  return Experiment::RandomWindow(sim.plan(), 0.25, rng);
}

// The engine's full-level work estimate for a cold cache (see
// degrade_test.cc).
double FreshFullCost(const Simulation& sim) {
  double total = 0.0;
  const int64_t now = sim.now();
  const int64_t coast = sim.config().filter.max_coast_seconds;
  for (ObjectId object : sim.collector().KnownObjects()) {
    const DataCollector::ObjectHistory* h = sim.collector().History(object);
    const int64_t horizon = std::min(h->LastTime() + coast, now);
    total +=
        static_cast<double>(std::max<int64_t>(horizon - h->FirstTime(), 0)) +
        1.0;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Rung coverage through the serial engine path.

TEST(ExplainTest, NoDeadlineExplainsFullService) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r =
      sim->pf_engine().EvaluateRange(Window(*sim, 1), sim->now(),
                                     /*deadline_ms=*/0, &e);
  EXPECT_EQ(r.quality, QualityLevel::kFull);
  EXPECT_EQ(e.kind, "range");
  EXPECT_EQ(e.quality, "full");
  EXPECT_EQ(e.budget_reason, "no_deadline");
  EXPECT_EQ(e.budget_filter_seconds, -1.0);
  EXPECT_FALSE(e.pruning_enabled);
  // Not every tag has necessarily been read by t=60; the record reports
  // the collector's real census, whatever it is.
  EXPECT_EQ(e.objects_known,
            static_cast<int64_t>(sim->collector().KnownObjects().size()));
  EXPECT_GT(e.objects_known, 0);
  // Pruning off: every known object is a candidate, every candidate's
  // cache state was probed, and the cold cache missed all of them.
  EXPECT_EQ(e.candidates, e.objects_known);
  EXPECT_EQ(e.cache_misses, e.candidates);
  EXPECT_EQ(e.cache_hits, 0);
  EXPECT_EQ(e.cache_stale, 0);
  // Full service charged real inference work.
  EXPECT_GT(e.filter_runs, 0);
  EXPECT_GT(e.filter_seconds, 0);
  EXPECT_EQ(e.stale_served_objects, 0);
  EXPECT_EQ(e.result_objects, static_cast<int64_t>(r.objects.size()));
  EXPECT_GT(e.total_ns, 0);
  EXPECT_FALSE(e.batched);
}

TEST(ExplainTest, GenerousDeadlineExplainsFullFits) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 2), sim->now(), /*deadline_ms=*/1 << 30, &e);
  EXPECT_EQ(r.quality, QualityLevel::kFull);
  EXPECT_EQ(e.quality, "full");
  EXPECT_EQ(e.budget_reason, "full_fits");
  EXPECT_GT(e.budget_filter_seconds, 0.0);
  // The decision recorded the cost it admitted; the cheaper rungs were
  // never evaluated.
  EXPECT_GT(e.est_full_cost, 0.0);
  EXPECT_LE(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_EQ(e.est_stale_cost, -1.0);
  EXPECT_EQ(e.est_reduced_cost, -1.0);
}

TEST(ExplainTest, TinyDeadlineExplainsBudgetExhausted) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 3), sim->now(), /*deadline_ms=*/1, &e);
  EXPECT_EQ(r.quality, QualityLevel::kPruneOnly);
  EXPECT_EQ(e.quality, "prune_only");
  EXPECT_EQ(e.budget_reason, "budget_exhausted");
  EXPECT_EQ(e.budget_filter_seconds, 1.0);
  // Every rung was priced and every rung was too expensive.
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GT(e.est_reduced_cost, e.budget_filter_seconds);
  // No inference ran: the explain charges zero filter work.
  EXPECT_EQ(e.filter_runs, 0);
  EXPECT_EQ(e.filter_seconds, 0);
}

TEST(ExplainTest, WarmCacheExplainsStaleFits) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  const Rect window = Window(*sim, 4);
  // Warm the cache at full quality, then choke the budget a second later.
  const QueryResult full = sim->pf_engine().EvaluateRange(window, sim->now());
  ASSERT_EQ(full.quality, QualityLevel::kFull);

  obs::QueryExplain e;
  const QueryResult stale = sim->pf_engine().EvaluateRange(
      window, sim->now() + 1, /*deadline_ms=*/5, &e);
  EXPECT_EQ(stale.quality, QualityLevel::kCachedStale);
  EXPECT_EQ(e.quality, "cached_stale");
  EXPECT_EQ(e.budget_reason, "stale_fits");
  // The probe saw the warm entries. At +1s they are still resumable, so
  // they classify as hits -- serving them as-is (without the resume) was
  // purely the budget's call, and the serve path recorded how many
  // objects went out stale.
  EXPECT_GT(e.cache_hits, 0);
  EXPECT_EQ(e.cache_misses, 0);
  EXPECT_GT(e.stale_served_objects, 0);
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GE(e.est_stale_cost, 0.0);
}

TEST(ExplainTest, MidBudgetExplainsReducedFits) {
  SimulationConfig config = BaseConfig();
  config.use_cache = false;  // No stale rung: force the reduced-Ns choice.
  std::unique_ptr<Simulation> sim = FreshSim(config);
  const int64_t deadline_ms = static_cast<int64_t>(FreshFullCost(*sim) * 0.6);
  ASSERT_GT(deadline_ms, 0);

  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 5), sim->now(), deadline_ms, &e);
  EXPECT_EQ(r.quality, QualityLevel::kReducedParticles);
  EXPECT_EQ(e.quality, "reduced_particles");
  EXPECT_EQ(e.budget_reason, "reduced_fits");
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GT(e.est_reduced_cost, 0.0);
  EXPECT_LE(e.est_reduced_cost, e.budget_filter_seconds);
  // Cache off: every candidate probe is a miss by definition.
  EXPECT_EQ(e.cache_misses, e.candidates);
}

TEST(ExplainTest, KnnExplainCarriesDistanceIndexProvenance) {
  SimulationConfig config = BaseConfig();
  config.use_pruning = true;  // kNN pruning consults the distance index.
  std::unique_ptr<Simulation> sim = FreshSim(config);
  Rng rng(7);
  const Point q = Experiment::RandomIndoorPoint(sim->anchors(), rng);

  obs::QueryExplain e;
  const KnnResult r =
      sim->pf_engine().EvaluateKnn(q, 3, sim->now(), /*deadline_ms=*/0, &e);
  EXPECT_EQ(e.kind, "knn");
  EXPECT_EQ(e.k, 3);
  EXPECT_TRUE(e.pruning_enabled);
  EXPECT_EQ(e.result_objects, static_cast<int64_t>(r.result.objects.size()));
  EXPECT_EQ(e.result_total_probability, r.total_probability);
}

// ---------------------------------------------------------------------------
// Scheduler batch explains.

TEST(ExplainTest, BatchExplainsShareDecisionAndMarkDuplicates) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  const Rect window = Window(*sim, 8);
  Rng rng(9);
  const Point q = Experiment::RandomIndoorPoint(sim->anchors(), rng);
  const std::vector<BatchQuery> batch = {
      BatchQuery::Range(window),
      BatchQuery::Knn(q, 3),
      BatchQuery::Range(window),  // Duplicate of slot 0.
  };

  QueryScheduler scheduler(&sim->pf_engine());
  std::vector<obs::QueryExplain> explains;
  const std::vector<BatchAnswer> answers = scheduler.EvaluateBatch(
      batch, sim->now(), /*deadline_ms=*/0, &explains);
  ASSERT_EQ(explains.size(), batch.size());

  EXPECT_EQ(explains[0].kind, "range");
  EXPECT_EQ(explains[1].kind, "knn");
  EXPECT_EQ(explains[2].kind, "range");
  EXPECT_FALSE(explains[0].deduped);
  EXPECT_FALSE(explains[1].deduped);
  EXPECT_TRUE(explains[2].deduped);
  for (const obs::QueryExplain& e : explains) {
    EXPECT_TRUE(e.batched);
    EXPECT_EQ(e.batch_size, 3);
    // One admission decision for the whole batch.
    EXPECT_EQ(e.budget_reason, "no_deadline");
    EXPECT_EQ(e.quality, "full");
  }
  // Duplicate slots carry their representative's record (same counts).
  EXPECT_EQ(explains[2].candidates, explains[0].candidates);
  EXPECT_EQ(explains[2].result_objects, explains[0].result_objects);
  EXPECT_EQ(answers[2].range.objects, answers[0].range.objects);
}

TEST(ExplainTest, BatchExplainsCoverEveryRung) {
  // The same deadline recipes as the serial rung tests, driven through
  // EvaluateBatch's explicit-deadline overload. Each case gets a fresh
  // world so the cache state matches the serial scenarios.
  struct Case {
    const char* want_quality;
    const char* want_reason;
  };

  // kFull via no deadline.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    QueryScheduler scheduler(&sim->pf_engine());
    std::vector<obs::QueryExplain> explains;
    scheduler.EvaluateBatch({BatchQuery::Range(Window(*sim, 10))}, sim->now(),
                            /*deadline_ms=*/0, &explains);
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "full");
    EXPECT_EQ(explains[0].budget_reason, "no_deadline");
  }
  // kPruneOnly via a 1ms budget on a cold cache.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    QueryScheduler scheduler(&sim->pf_engine());
    std::vector<obs::QueryExplain> explains;
    scheduler.EvaluateBatch({BatchQuery::Range(Window(*sim, 11))}, sim->now(),
                            /*deadline_ms=*/1, &explains);
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "prune_only");
    EXPECT_EQ(explains[0].budget_reason, "budget_exhausted");
  }
  // kCachedStale via a warm cache and a tight budget one second later.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    const Rect window = Window(*sim, 12);
    ASSERT_EQ(sim->pf_engine().EvaluateRange(window, sim->now()).quality,
              QualityLevel::kFull);
    QueryScheduler scheduler(&sim->pf_engine());
    std::vector<obs::QueryExplain> explains;
    scheduler.EvaluateBatch({BatchQuery::Range(window)}, sim->now() + 1,
                            /*deadline_ms=*/5, &explains);
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "cached_stale");
    EXPECT_EQ(explains[0].budget_reason, "stale_fits");
    EXPECT_GT(explains[0].stale_served_objects, 0);
  }
  // kReducedParticles via cache-off and a 60% budget.
  {
    SimulationConfig config = BaseConfig();
    config.use_cache = false;
    std::unique_ptr<Simulation> sim = FreshSim(config);
    const int64_t deadline_ms =
        static_cast<int64_t>(FreshFullCost(*sim) * 0.6);
    ASSERT_GT(deadline_ms, 0);
    QueryScheduler scheduler(&sim->pf_engine());
    std::vector<obs::QueryExplain> explains;
    scheduler.EvaluateBatch({BatchQuery::Range(Window(*sim, 13))}, sim->now(),
                            deadline_ms, &explains);
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "reduced_particles");
    EXPECT_EQ(explains[0].budget_reason, "reduced_fits");
  }
}

TEST(ExplainTest, BatchExplainOnOffAnswersIdentical) {
  // Twin worlds, twin schedulers, one collects explains: answers must be
  // byte-identical (the batched arm of the determinism guarantee).
  std::unique_ptr<Simulation> a = FreshSim(BaseConfig());
  std::unique_ptr<Simulation> b = FreshSim(BaseConfig());
  const Rect window = Window(*a, 14);
  Rng rng(15);
  const Point q = Experiment::RandomIndoorPoint(a->anchors(), rng);
  const std::vector<BatchQuery> batch = {BatchQuery::Range(window),
                                         BatchQuery::Knn(q, 3)};

  QueryScheduler plain(&a->pf_engine());
  QueryScheduler observed(&b->pf_engine());
  const std::vector<BatchAnswer> expected =
      plain.EvaluateBatch(batch, a->now());
  std::vector<obs::QueryExplain> explains;
  const std::vector<BatchAnswer> got = observed.EvaluateBatch(
      batch, b->now(), b->pf_engine().config().deadline_ms, &explains);

  ASSERT_EQ(expected.size(), got.size());
  EXPECT_EQ(expected[0].range.objects, got[0].range.objects);
  EXPECT_EQ(expected[1].knn.result.objects, got[1].knn.result.objects);
  EXPECT_EQ(expected[1].knn.total_probability, got[1].knn.total_probability);
}

// ---------------------------------------------------------------------------
// Serial vs batch-of-one parity.

// Serves `query` alone, serially or as a batch of one, and returns its
// explain record.
obs::QueryExplain ServeAlone(Simulation& sim, const BatchQuery& query,
                             int64_t now, int64_t deadline_ms, bool batched,
                             BatchAnswer* answer) {
  obs::QueryExplain e;
  if (batched) {
    QueryScheduler scheduler(&sim.pf_engine());
    std::vector<obs::QueryExplain> explains;
    *answer = scheduler.EvaluateBatch({query}, now, deadline_ms, &explains)[0];
    return explains[0];
  }
  answer->kind = query.kind;
  if (query.kind == BatchQuery::Kind::kRange) {
    answer->range =
        sim.pf_engine().EvaluateRange(query.window, now, deadline_ms, &e);
  } else {
    answer->knn = sim.pf_engine().EvaluateKnn(query.point, query.k, now,
                                              deadline_ms, &e);
  }
  return e;
}

// A record without its batch context and timings: what serial and
// batch-of-one serving must agree on.
std::string ComparableJson(obs::QueryExplain e) {
  e.batched = false;
  e.batch_size = 0;
  return e.ToJson(/*include_timings=*/false);
}

TEST(ExplainTest, SerialRecordMatchesBatchOfOneOnEveryRung) {
  // Every rung, for range and kNN, with pruning on and off: serving a
  // query alone through EvaluateRange/EvaluateKnn or as a batch of one
  // through the scheduler must give the same answer and the same record
  // in every field but batched, batch_size and the timings. Each arm gets
  // its own fresh world so the cache states match.
  const char* const kRungs[] = {"full", "cached_stale", "reduced_particles",
                                "prune_only"};
  for (const bool pruning : {true, false}) {
    for (const bool knn : {false, true}) {
      for (const std::string rung : kRungs) {
        SCOPED_TRACE(std::string(knn ? "knn" : "range") + " pruning=" +
                     (pruning ? "on" : "off") + " rung=" + rung);
        SimulationConfig config = BaseConfig();
        config.use_pruning = pruning;
        // No cache, no stale rung: forces the reduced-particle choice.
        config.use_cache = rung != "reduced_particles";
        std::unique_ptr<Simulation> serial = FreshSim(config);
        std::unique_ptr<Simulation> batched = FreshSim(config);
        Rng rng(40);
        const BatchQuery query =
            knn ? BatchQuery::Knn(
                      Experiment::RandomIndoorPoint(serial->anchors(), rng), 3)
                : BatchQuery::Range(Window(*serial, 41));
        int64_t now = serial->now();
        int64_t deadline_ms = 0;  // "full": no deadline.
        if (rung == "cached_stale") {
          // Warm every object's cache entry, then choke the budget one
          // second later.
          for (Simulation* sim : {serial.get(), batched.get()}) {
            sim->pf_engine().InferBatch(sim->collector().KnownObjects(), now);
          }
          now += 1;
          deadline_ms = 1;
        } else if (rung == "reduced_particles") {
          // 60% of this query's full cost: kFull does not fit, the
          // reduced plan (16 of 64 particles) does.
          std::unique_ptr<Simulation> probe = FreshSim(config);
          BatchAnswer ignored;
          const obs::QueryExplain costed = ServeAlone(
              *probe, query, now, /*deadline_ms=*/1 << 30, false, &ignored);
          deadline_ms = static_cast<int64_t>(costed.est_full_cost * 0.6);
        } else if (rung == "prune_only") {
          deadline_ms = 1;  // Cold cache: nothing fits.
        }

        BatchAnswer want;
        BatchAnswer got;
        const obs::QueryExplain serial_e =
            ServeAlone(*serial, query, now, deadline_ms, false, &want);
        const obs::QueryExplain batch_e =
            ServeAlone(*batched, query, now, deadline_ms, true, &got);
        EXPECT_EQ(serial_e.quality, rung);
        EXPECT_FALSE(serial_e.batched);
        EXPECT_EQ(serial_e.batch_size, 0);
        EXPECT_TRUE(batch_e.batched);
        EXPECT_EQ(batch_e.batch_size, 1);
        EXPECT_EQ(ComparableJson(serial_e), ComparableJson(batch_e));
        if (knn) {
          EXPECT_EQ(want.knn.result.objects, got.knn.result.objects);
          EXPECT_EQ(want.knn.result.quality, got.knn.result.quality);
          EXPECT_EQ(want.knn.total_probability, got.knn.total_probability);
        } else {
          EXPECT_EQ(want.range.objects, got.range.objects);
          EXPECT_EQ(want.range.quality, got.range.quality);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// JSON export.

TEST(ExplainTest, JsonParsesAndCarriesTheDecisionPaths) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  sim->pf_engine().EvaluateRange(Window(*sim, 20), sim->now(),
                                 /*deadline_ms=*/1, &e);

  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(e.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->FindPath("kind")->AsString(), "range");
  EXPECT_EQ(doc->FindPath("quality")->AsString(), "prune_only");
  EXPECT_EQ(doc->FindPath("budget.reason")->AsString(), "budget_exhausted");
  EXPECT_EQ(doc->FindPath("cache.misses")->AsInt(), e.cache_misses);
  EXPECT_EQ(doc->FindPath("work.filter_seconds")->AsInt(), 0);
  EXPECT_NE(doc->FindPath("timing_ns.total"), nullptr);
  EXPECT_NE(doc->FindPath("ingest.watermark"), nullptr);
  EXPECT_NE(doc->FindPath("result.total_probability"), nullptr);

  // include_timings=false zeroes exactly the wall-clock fields.
  const std::optional<obs::JsonValue> stable =
      obs::JsonValue::Parse(e.ToJson(/*include_timings=*/false));
  ASSERT_TRUE(stable.has_value());
  EXPECT_EQ(stable->FindPath("timing_ns.total")->AsInt(), 0);
  EXPECT_EQ(stable->FindPath("cache.misses")->AsInt(), e.cache_misses);
}

TEST(ExplainTest, GoldenRecordPinsTheExportFormat) {
  // One full record, serialized without timings, against a checked-in
  // golden file. Any change to the record's fields, key order, or number
  // formatting shows up as a diff here. Regenerate deliberately with
  // IPQS_UPDATE_GOLDEN=1.
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  sim->pf_engine().EvaluateRange(Window(*sim, 30), sim->now(),
                                 /*deadline_ms=*/1 << 20, &e);
  const std::string got = e.ToJson(/*include_timings=*/false) + "\n";

  const std::string path =
      std::string(IPQS_TEST_DATA_DIR) + "/golden_explain.json";
  if (std::getenv("IPQS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (regenerate with IPQS_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

TEST(ExplainTest, WriteExplainsJsonIsAnArrayOfRecords) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  std::vector<obs::QueryExplain> explains(2);
  // Cold-cache tiny budget first (prune_only), then unlimited (full);
  // the other order would warm the cache and turn the second record into
  // a stale serve.
  sim->pf_engine().EvaluateRange(Window(*sim, 31), sim->now(), 1,
                                 &explains[0]);
  sim->pf_engine().EvaluateRange(Window(*sim, 32), sim->now(), 0,
                                 &explains[1]);
  std::ostringstream os;
  obs::WriteExplainsJson(os, explains);
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(os.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->items().size(), 2u);
  EXPECT_EQ(doc->items()[0].FindPath("quality")->AsString(), "prune_only");
  EXPECT_EQ(doc->items()[1].FindPath("quality")->AsString(), "full");
}

}  // namespace
}  // namespace ipqs
