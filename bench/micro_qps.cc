// Query-serving throughput vs. concurrent-query count: the same stream of
// range/kNN queries served one engine call at a time (the original serving
// path: a fresh pruning Dijkstra per kNN query) versus batched through the
// QueryScheduler at growing batch sizes (per-reader distance tables,
// duplicate-query dedup, one inference pass over the union of candidates
// per batch).
//
// The workload models a serving frontend: at every timestamp a wave of
// concurrent queries arrives, drawn from a hot panel of query points and
// windows (dashboards and pinned views repeat the same queries), so a
// batch contains duplicates and near-misses — exactly what the scheduler's
// dedup and the precomputed distance tables exploit. Answers are verified
// byte-identical across every batch size (and against the serial
// baseline); batching changes throughput, never answers.
//
// Single-core note: the speedup here comes from doing LESS work (dedup,
// precomputed distances, shared evaluation tables), not from parallelism,
// so it holds on any machine. IPQS_FAST=1 shrinks the protocol.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "query/query_scheduler.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

constexpr uint64_t kSeed = 7;
constexpr int kK = 3;

struct Answers {
  std::vector<QueryResult> range;
  std::vector<KnnResult> knn;
};

bool SameAnswers(const Answers& a, const Answers& b) {
  if (a.range.size() != b.range.size() || a.knn.size() != b.knn.size()) {
    return false;
  }
  for (size_t i = 0; i < a.range.size(); ++i) {
    if (a.range[i].objects != b.range[i].objects) {
      return false;
    }
  }
  for (size_t i = 0; i < a.knn.size(); ++i) {
    if (a.knn[i].result.objects != b.knn[i].result.objects ||
        a.knn[i].total_probability != b.knn[i].total_probability) {
      return false;
    }
  }
  return true;
}

int RunQps() {
  const bool fast = bench::FastMode();
  const int num_timestamps = fast ? 3 : 8;
  const int queries_per_timestamp = 64;
  const int panel_knn = 6;
  const int panel_range = 2;
  const int warmup_seconds = fast ? 120 : 300;
  const int seconds_between = 10;
  const int num_objects = fast ? 60 : 200;

  bench::PrintHeader(
      "micro_qps", "query-serving throughput vs. concurrent-query batch size",
      "batch", {"serve_ms", "qps", "speedup", "dedup"});

  double baseline_ms = 0.0;
  Answers baseline;

  for (const int batch_size : {1, 4, 16, 64}) {
    // Fresh world per sweep point: same seed, so every row sees the same
    // reading stream and draws the same query workload.
    obs::MetricsRegistry registry;
    obs::TimeSeriesSampler sampler(&registry);
    SimulationConfig config;
    config.trace.num_objects = num_objects;
    config.seed = kSeed;
    config.metrics = &registry;
    // With IPQS_BENCH_JSON set, every Step() snapshots the registry into
    // the time-series ring; the largest-batch row's series is exported
    // below as SERIES_micro_qps.json.
    const char* series_dir = std::getenv("IPQS_BENCH_JSON");
    if (series_dir != nullptr && *series_dir != '\0') {
      config.sampler = &sampler;
    }
    // batch 1 is the original serving path: one engine call per query and
    // an exact pruning Dijkstra per kNN query (the reference distances the
    // per-reader tables must reproduce).
    config.use_distance_index = batch_size > 1;
    auto sim_or = Simulation::Create(config);
    IPQS_CHECK(sim_or.ok());
    std::unique_ptr<Simulation> sim = std::move(*sim_or);
    sim->Run(warmup_seconds);

    std::vector<Point> knn_panel;
    for (int i = 0; i < panel_knn; ++i) {
      knn_panel.push_back(
          Experiment::RandomIndoorPoint(sim->anchors(), sim->query_rng()));
    }
    std::vector<Rect> range_panel;
    for (int i = 0; i < panel_range; ++i) {
      range_panel.push_back(
          Experiment::RandomWindow(sim->plan(), 0.02, sim->query_rng()));
    }
    // The full query stream, pre-drawn so serving is the only timed work.
    std::vector<std::vector<BatchQuery>> stream(num_timestamps);
    for (int ts = 0; ts < num_timestamps; ++ts) {
      for (int q = 0; q < queries_per_timestamp; ++q) {
        const size_t pick = sim->query_rng().UniformIndex(
            static_cast<size_t>(panel_knn + panel_range));
        if (pick < static_cast<size_t>(panel_knn)) {
          stream[ts].push_back(BatchQuery::Knn(knn_panel[pick], kK));
        } else {
          stream[ts].push_back(
              BatchQuery::Range(range_panel[pick - panel_knn]));
        }
      }
    }

    QueryScheduler scheduler(&sim->pf_engine());
    Answers answers;
    double serve_ms = 0.0;
    int64_t served = 0;
    for (int ts = 0; ts < num_timestamps; ++ts) {
      sim->Run(seconds_between);
      const int64_t now = sim->now();
      // Bring the filter current before timing: a tracking system updates
      // continuously as readings stream in, and that catch-up cost is paid
      // identically by every serving strategy. The timed region below is
      // pure query serving: pruning, evaluation, and (serial only) the
      // per-kNN-query distance Dijkstra that the reader tables replace.
      sim->pf_engine().EvaluateRange(sim->plan().BoundingBox(), now);
      const std::vector<BatchQuery>& wave = stream[ts];
      const auto start = std::chrono::steady_clock::now();
      std::vector<BatchAnswer> out;
      if (batch_size == 1) {
        for (const BatchQuery& q : wave) {
          BatchAnswer a;
          a.kind = q.kind;
          if (q.kind == BatchQuery::Kind::kRange) {
            a.range = sim->pf_engine().EvaluateRange(q.window, now);
          } else {
            a.knn = sim->pf_engine().EvaluateKnn(q.point, q.k, now);
          }
          out.push_back(std::move(a));
        }
      } else {
        for (size_t i = 0; i < wave.size(); i += batch_size) {
          const std::vector<BatchQuery> chunk(
              wave.begin() + i,
              wave.begin() + std::min(i + batch_size, wave.size()));
          std::vector<BatchAnswer> part = scheduler.EvaluateBatch(chunk, now);
          for (BatchAnswer& a : part) {
            out.push_back(std::move(a));
          }
        }
      }
      const auto end = std::chrono::steady_clock::now();
      serve_ms +=
          std::chrono::duration<double, std::milli>(end - start).count();
      served += static_cast<int64_t>(out.size());
      for (const BatchAnswer& a : out) {
        if (a.kind == BatchQuery::Kind::kRange) {
          answers.range.push_back(a.range);
        } else {
          answers.knn.push_back(a.knn);
        }
      }
    }

    bool identical = true;
    if (batch_size == 1) {
      baseline_ms = serve_ms;
      baseline = answers;
    } else {
      identical = SameAnswers(answers, baseline);
    }
    const double qps = static_cast<double>(served) / (serve_ms / 1000.0);
    // Fraction of the wave collapsed by dedup (0 on the serial row, where
    // the scheduler never ran).
    const int64_t sched_queries =
        registry.GetCounter("pf.qps.queries")->Value();
    const double dedup =
        sched_queries == 0
            ? 0.0
            : static_cast<double>(
                  registry.GetCounter("pf.qps.duplicate_queries")->Value()) /
                  static_cast<double>(sched_queries);
    bench::PrintRow(batch_size,
                    {serve_ms, qps,
                     baseline_ms == 0.0 ? 1.0 : baseline_ms / serve_ms,
                     dedup});
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: batch=%d answers diverged from the serial "
                   "baseline\n",
                   batch_size);
      return 1;
    }
    if (config.sampler != nullptr && batch_size == 64) {
      const std::string path =
          std::string(series_dir) + "/SERIES_micro_qps.json";
      std::ofstream os(path, std::ios::trunc);
      sampler.WriteJson(os);
      if (os.good()) {
        std::printf("time series written: %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write time series to %s\n",
                     path.c_str());
      }
    }
  }

  bench::PrintShapeNote(
      "QPS grows with batch size: duplicate queries collapse to one "
      "evaluation, kNN pruning reads precomputed distance tables, and each "
      "batch runs one inference pass. Expect QPS to rise with the batch "
      "size and its dedup fraction; answers stay byte-identical "
      "throughout.");
  return 0;
}

}  // namespace
}  // namespace ipqs

int main() { return ipqs::RunQps(); }
