// The distance layer behind kNN pruning. Every uncertain region is a disc
// centred on a reader, so pruning only reads the network distance from the
// query to each reader. With use_distance_index on, the engine answers
// those from one OneToAllDistances table per reader (looked up at the
// query); off, it runs one exact Dijkstra from the query. The two sum the
// same shortest paths in opposite directions, so they may differ in the
// last bits, never more: (a) fuzzes that over generated graphs, including
// disconnected ones where both directions must read +inf, never NaN;
// (b) runs engines with the knob on and off over several worlds and
// requires the same candidates and byte-identical answers; (c) pins the
// +inf handling of the interval arithmetic.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_gen.h"
#include "graph/shortest_path.h"
#include "query/query_engine.h"
#include "query/uncertain_region.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Both +inf, or equal to within 1e-9 * max(1, d): the two directions may
// round their sums differently, by ulps, never more.
::testing::AssertionResult SameDistance(double reader_sourced,
                                        double query_sourced) {
  if (std::isnan(reader_sourced) || std::isnan(query_sourced)) {
    return ::testing::AssertionFailure()
           << "NaN: " << reader_sourced << " vs " << query_sourced;
  }
  if (std::isinf(reader_sourced) || std::isinf(query_sourced)) {
    if (reader_sourced == kInf && query_sourced == kInf) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "one-sided inf: " << reader_sourced << " vs " << query_sourced;
  }
  const double scale = std::max(1.0, std::max(reader_sourced, query_sourced));
  if (std::fabs(reader_sourced - query_sourced) <= 1e-9 * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << reader_sourced << " vs " << query_sourced;
}

// The generated-graph shapes the fuzz sweeps: a small connected world, a
// chord-heavy one (many alternative routes, so many near-tied paths), and
// a disconnected three-component world where unreachable pairs must read
// +inf in both directions.
std::vector<GeneratedGraphConfig> FuzzConfigs() {
  std::vector<GeneratedGraphConfig> configs;
  {
    GeneratedGraphConfig c;
    c.nodes_per_component = 48;
    configs.push_back(c);
  }
  {
    GeneratedGraphConfig c;
    c.nodes_per_component = 96;
    c.extra_edge_fraction = 1.0;
    configs.push_back(c);
  }
  {
    GeneratedGraphConfig c;
    c.nodes_per_component = 32;
    c.num_components = 3;
    configs.push_back(c);
  }
  return configs;
}

// (a) Reader-sourced tables read at a query agree with the query-sourced
// table read at the reader; the query-sourced value is also exactly the
// early-exit point-to-point Dijkstra.
TEST(DistanceTest, ReaderTablesAgreeWithQueryDijkstraOnGeneratedGraphs) {
  for (const GeneratedGraphConfig& base : FuzzConfigs()) {
    int unreachable = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      GeneratedGraphConfig config = base;
      config.seed = seed;
      const WalkingGraph graph = GenerateGraph(config);
      Rng rng(seed * 977 + static_cast<uint64_t>(config.num_components));
      std::vector<GraphLocation> readers;
      std::vector<OneToAllDistances> tables;
      for (int r = 0; r < 8; ++r) {
        readers.push_back(RandomLocation(graph, rng));
        tables.emplace_back(graph, readers.back());
      }
      for (int i = 0; i < 40; ++i) {
        const GraphLocation q = RandomLocation(graph, rng);
        const OneToAllDistances from_query(graph, q);
        for (size_t r = 0; r < readers.size(); ++r) {
          const double reader_sourced = tables[r].ToLocation(q);
          const double query_sourced = from_query.ToLocation(readers[r]);
          EXPECT_TRUE(SameDistance(reader_sourced, query_sourced))
              << "nodes " << config.nodes_per_component << " seed " << seed
              << " query " << i << " reader " << r;
          EXPECT_EQ(query_sourced, NetworkDistance(graph, q, readers[r]));
          unreachable += std::isinf(reader_sourced) ? 1 : 0;
        }
      }
    }
    // The disconnected shape must actually exercise the +inf case.
    if (base.num_components > 1) {
      EXPECT_GT(unreachable, 0);
    } else {
      EXPECT_EQ(unreachable, 0);
    }
  }
}

TEST(DistanceTest, DisconnectedComponentsReadInfinity) {
  GeneratedGraphConfig config;
  config.nodes_per_component = 24;
  config.num_components = 2;
  config.seed = 7;
  const WalkingGraph graph = GenerateGraph(config);
  // Edges are appended component by component: first and last edge live in
  // different components.
  const GraphLocation a{0, graph.edge(0).length / 2};
  const EdgeId last = graph.num_edges() - 1;
  const GraphLocation b{last, graph.edge(last).length / 2};
  EXPECT_EQ(OneToAllDistances(graph, a).ToLocation(b), kInf);
  EXPECT_EQ(OneToAllDistances(graph, b).ToLocation(a), kInf);
  EXPECT_EQ(NetworkDistance(graph, a, b), kInf);
  // Within a component the distance stays finite.
  EXPECT_TRUE(std::isfinite(
      OneToAllDistances(graph, a).ToLocation({0, graph.edge(0).length})));
}

// (b) Engine differential: the reader tables (use_distance_index on) and
// the exact per-query Dijkstra (off) must prune to the same candidates
// and give byte-identical answers, at any thread count.
class EngineDistanceTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Simulation> World(uint64_t seed) {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = seed;
    config.use_cache = false;
    std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
    sim->Run(300);
    return sim;
  }

  static std::unique_ptr<QueryEngine> Engine(const Simulation& sim,
                                             bool use_distance_index,
                                             int num_threads) {
    EngineConfig config;
    config.use_cache = false;
    config.use_distance_index = use_distance_index;
    config.num_threads = num_threads;
    config.seed = 99;
    return std::make_unique<QueryEngine>(
        &sim.graph(), &sim.plan(), &sim.anchors(), &sim.anchor_graph(),
        &sim.deployment(), &sim.deployment_graph(), &sim.collector(), config);
  }

  // Every reader position plus random anchor points, each at k = 1, 3, 5.
  static std::vector<BatchQuery> Panel(const Simulation& sim, uint64_t seed) {
    std::vector<Point> points;
    for (ReaderId r = 0; r < sim.deployment().num_readers(); ++r) {
      points.push_back(sim.deployment().reader(r).pos);
    }
    Rng rng(seed * 31 + 5);
    for (int i = 0; i < 30; ++i) {
      points.push_back(Experiment::RandomIndoorPoint(sim.anchors(), rng));
    }
    std::vector<BatchQuery> batch;
    for (const Point& p : points) {
      for (const int k : {1, 3, 5}) {
        batch.push_back(BatchQuery::Knn(p, k));
      }
    }
    return batch;
  }

  struct Served {
    std::vector<BatchAnswer> answers;
    std::vector<BatchSlotDetail> details;
  };

  static Served Serve(QueryEngine& engine, const std::vector<BatchQuery>& batch,
                      int64_t now) {
    Served out;
    out.answers.resize(batch.size());
    out.details.resize(batch.size());
    engine.Serve(batch, now, /*deadline_ms=*/0, out.answers, {}, out.details);
    return out;
  }
};

TEST_F(EngineDistanceTest, EngineAnswersMatchExactPathAcrossWorlds) {
  int answered = 0;  // Slots with a non-empty answer.
  int pruned = 0;    // Slots whose pruning dropped some known object.
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    const std::unique_ptr<Simulation> sim = World(seed);
    const std::vector<BatchQuery> batch = Panel(*sim, seed);
    const int64_t now = sim->now();
    const Served exact = Serve(*Engine(*sim, false, 1), batch, now);
    const size_t known = sim->collector().KnownObjects().size();
    for (size_t i = 0; i < batch.size(); ++i) {
      answered += exact.answers[i].knn.result.objects.empty() ? 0 : 1;
      pruned += exact.details[i].candidates.size() < known ? 1 : 0;
    }
    for (const int threads : {1, 4}) {
      const Served tables = Serve(*Engine(*sim, true, threads), batch, now);
      for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " threads " << threads << " slot "
                     << i << " k " << batch[i].k);
        const KnnResult& want = exact.answers[i].knn;
        const KnnResult& got = tables.answers[i].knn;
        EXPECT_EQ(got.result.objects, want.result.objects);
        EXPECT_EQ(got.total_probability, want.total_probability);
        EXPECT_EQ(got.anchors_searched, want.anchors_searched);
        EXPECT_EQ(got.result.quality, want.result.quality);
        EXPECT_EQ(got.result.coverage_degraded,
                  want.result.coverage_degraded);
        EXPECT_EQ(tables.details[i].candidates, exact.details[i].candidates);
        const std::vector<double>& d = tables.details[i].dists.to_reader;
        const std::vector<double>& e = exact.details[i].dists.to_reader;
        ASSERT_EQ(d.size(),
                  static_cast<size_t>(sim->deployment().num_readers()));
        ASSERT_EQ(d.size(), e.size());
        for (size_t r = 0; r < d.size(); ++r) {
          EXPECT_TRUE(SameDistance(d[r], e[r])) << "reader " << r;
        }
      }
    }
  }
  // The sweep must exercise real answers and real pruning.
  EXPECT_GT(answered, 0);
  EXPECT_GT(pruned, 0);
}

// The tables are built at each reader's own position: every distance the
// engine reads equals a direct one-to-all computation from that reader.
TEST_F(EngineDistanceTest, ReaderTablesMatchDirectComputation) {
  const std::unique_ptr<Simulation> sim = World(31);
  const std::vector<BatchQuery> batch = Panel(*sim, 31);
  const Served served = Serve(*Engine(*sim, true, 1), batch, sim->now());
  std::vector<OneToAllDistances> direct;
  for (ReaderId r = 0; r < sim->deployment().num_readers(); ++r) {
    direct.emplace_back(sim->graph(), sim->deployment().reader(r).loc);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchSlotDetail& detail = served.details[i];
    ASSERT_EQ(detail.dists.to_reader.size(), direct.size());
    for (size_t r = 0; r < direct.size(); ++r) {
      EXPECT_EQ(detail.dists.to_reader[r],
                direct[r].ToLocation(detail.snapped))
          << "slot " << i << " reader " << r;
    }
  }
}

// (c) An unreachable reader reads +inf; the interval around it must stay
// {inf, inf} (inf - radius must never become NaN or a finite sentinel), so
// kNN pruning can recognize and skip it instead of ordering by garbage.
TEST(UnreachableTargetTest, IntervalFromUnreachableReaderIsInfNotNan) {
  SourceDistances dists;
  dists.to_reader.push_back(3.0);
  dists.to_reader.push_back(kInf);
  UncertainRegion region;
  region.reader = 1;
  region.radius = 2.0;
  const DistanceInterval iv = NetworkDistanceInterval(dists, region);
  EXPECT_TRUE(std::isinf(iv.min_dist));
  EXPECT_TRUE(std::isinf(iv.max_dist));
  EXPECT_FALSE(std::isnan(iv.min_dist));
  region.reader = 0;
  const DistanceInterval finite = NetworkDistanceInterval(dists, region);
  EXPECT_DOUBLE_EQ(finite.min_dist, 1.0);
  EXPECT_DOUBLE_EQ(finite.max_dist, 5.0);
}

}  // namespace
}  // namespace ipqs
