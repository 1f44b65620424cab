// Microbenchmarks (google-benchmark) for the system's hot paths: filter
// runs, query evaluation, shortest paths, resampling, and world
// construction. These back the paper's efficiency claims (Section 5 runs
// everything on a single server) with concrete per-operation costs.
//
// Custom main (google-benchmark rejects flags it doesn't know):
//   --metrics_json=FILE  wire the shared world into a MetricsRegistry and
//                        dump every counter/gauge/latency histogram as JSON
//                        after the benchmarks finish.
// IPQS_FAST=1 shrinks the shared world for quick runs and CI.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "filter/resampler.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// Shared registry for the world's engines; only populated when
// --metrics_json was passed (set before any benchmark builds the world).
obs::MetricsRegistry& Registry() {
  static obs::MetricsRegistry registry;
  return registry;
}
obs::TimeSeriesSampler& Sampler() {
  // BM_SimulationStep advances the world by tens of thousands of sim
  // seconds; keep the exported artifact small by retaining only the tail.
  static obs::TimeSeriesSampler sampler(&Registry(),
                                        obs::TimeSeriesConfig{.capacity = 512});
  return sampler;
}
bool g_metrics_enabled = false;
bool g_series_enabled = false;

// Object count of the shared world; recorded in the benchmark context.
int WorldObjects() { return bench::FastMode() ? 80 : 200; }

// One shared world, built once: benchmarks measure steady-state costs.
Simulation& World() {
  static Simulation* world = [] {
    SimulationConfig config;
    config.trace.num_objects = WorldObjects();
    config.seed = 7;
    if (g_metrics_enabled || g_series_enabled) {
      config.metrics = &Registry();
    }
    if (g_series_enabled) {
      config.sampler = &Sampler();
    }
    auto sim = Simulation::Create(config);
    IPQS_CHECK(sim.ok());
    Simulation* raw = sim->release();
    raw->Run(bench::FastMode() ? 180 : 300);
    return raw;
  }();
  return *world;
}

void BM_GraphBuild(benchmark::State& state) {
  const auto plan = GenerateOffice(OfficeConfig{}).value();
  for (auto _ : state) {
    auto graph = BuildWalkingGraph(plan);
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_GraphBuild);

void BM_AnchorIndexBuild(benchmark::State& state) {
  const auto plan = GenerateOffice(OfficeConfig{}).value();
  const auto graph = BuildWalkingGraph(plan).value();
  for (auto _ : state) {
    auto index = AnchorPointIndex::Build(graph, plan, 1.0);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_AnchorIndexBuild);

void BM_ShortestPath(benchmark::State& state) {
  Simulation& sim = World();
  const GraphLocation from{0, 0.5};
  const GraphLocation to{sim.graph().num_edges() - 1, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(NetworkDistance(sim.graph(), from, to));
  }
}
BENCHMARK(BM_ShortestPath);

// ---------------------------------------------------------------------------
// Filter stage benchmarks: the inner stages of Algorithm 2 (predict,
// weight, resample, and the post-resample roughening) measured in
// isolation at filter-realistic particle counts. `items_per_second` is
// particle-stage-steps per second; these rows back the SoA-kernel speedup
// claims, and all but the roughening rows feed the perf-regression guard
// (scripts/check_perf.py) via the IPQS_BENCH_JSON output.

constexpr int kStageSteps = 16;  // Simulated seconds per timed iteration.

void BM_PredictStage(benchmark::State& state) {
  Simulation& sim = World();
  FilterConfig config;
  config.num_particles = static_cast<int>(state.range(0));
  const ParticleFilter filter(&sim.graph(), &sim.deployment(), config);
  Rng init_rng(11);
  const ParticleSoA base = filter.InitializeAtReader(2, init_rng);
  const MotionModel& motion = filter.motion_model();
  const EdgeSoA edges = EdgeSoA::FromGraph(sim.graph());
  ParticleSoA soa;
  FilterArena arena;
  for (auto _ : state) {
    soa = base;
    Rng rng(12);
    for (int s = 0; s < kStageSteps; ++s) {
      motion.StepAll(sim.graph(), edges, &soa, &arena, 1.0, rng);
    }
    benchmark::DoNotOptimize(soa.offset.data());
  }
  state.SetItemsProcessed(state.iterations() * kStageSteps *
                          static_cast<int64_t>(base.size()));
}
BENCHMARK(BM_PredictStage)->Arg(64)->Arg(1024);

void BM_WeightStage(benchmark::State& state) {
  Simulation& sim = World();
  FilterConfig config;
  config.num_particles = static_cast<int>(state.range(0));
  const ParticleFilter filter(&sim.graph(), &sim.deployment(), config);
  Rng init_rng(13);
  const ParticleSoA base = filter.InitializeAtReader(2, init_rng);
  const MeasurementModel& meas = filter.measurement_model();
  constexpr ReaderId kDetector = 2;
  const EdgeSoA edges = EdgeSoA::FromGraph(sim.graph());
  ParticleSoA soa;
  FilterArena arena;
  for (auto _ : state) {
    soa = base;
    const size_t n = soa.size();
    arena.x.resize(n);
    arena.y.resize(n);
    for (int s = 0; s < kStageSteps; ++s) {
      // The full per-observation update: positions, fused consistency
      // scan + reweight, normalize (exactly Advance's detection-second
      // weighting work).
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      const size_t consistent =
          meas.WeightOnDetection(sim.deployment(), kDetector, n,
                                 arena.x.data(), arena.y.data(),
                                 soa.weight.data());
      benchmark::DoNotOptimize(consistent);
      NormalizeWeights(&soa);
    }
    benchmark::DoNotOptimize(soa.weight.data());
  }
  state.SetItemsProcessed(state.iterations() * kStageSteps *
                          static_cast<int64_t>(base.size()));
}
BENCHMARK(BM_WeightStage)->Arg(64)->Arg(1024);

void BM_ResampleStage(benchmark::State& state) {
  Simulation& sim = World();
  FilterConfig config;
  config.num_particles = static_cast<int>(state.range(0));
  const ParticleFilter filter(&sim.graph(), &sim.deployment(), config);
  Rng init_rng(17);
  ParticleSoA base = filter.InitializeAtReader(2, init_rng);
  {
    // Non-uniform weights so resampling actually reshuffles the set.
    Rng wrng(19);
    for (double& w : base.weight) w = wrng.Uniform(0.01, 1.0);
    NormalizeWeights(&base);
  }
  Rng rng(23);
  ParticleSoA soa;
  FilterArena arena;
  for (auto _ : state) {
    soa = base;
    for (int s = 0; s < kStageSteps; ++s) {
      SystematicResample(&soa, &arena, rng);
      // Restore the skewed (pre-normalized) weights so every round does
      // real selection work.
      soa.weight = base.weight;
    }
    benchmark::DoNotOptimize(soa.weight.data());
  }
  state.SetItemsProcessed(state.iterations() * kStageSteps *
                          static_cast<int64_t>(base.size()));
}
BENCHMARK(BM_ResampleStage)->Arg(64)->Arg(1024);

void BM_RoughenStage(benchmark::State& state) {
  // Two Gaussian draws per hallway particle (position, then speed): the
  // cost of the random-number layer inside the resample step.
  Simulation& sim = World();
  FilterConfig config;
  config.num_particles = static_cast<int>(state.range(0));
  const ParticleFilter filter(&sim.graph(), &sim.deployment(), config);
  Rng init_rng(29);
  const ParticleSoA base = filter.InitializeAtReader(2, init_rng);
  const MotionModel& motion = filter.motion_model();
  const EdgeSoA edges = EdgeSoA::FromGraph(sim.graph());
  ParticleSoA soa;
  Rng rng(31);
  for (auto _ : state) {
    soa = base;
    for (int s = 0; s < kStageSteps; ++s) {
      motion.RoughenAll(edges, &soa, rng);
    }
    benchmark::DoNotOptimize(soa.offset.data());
  }
  state.SetItemsProcessed(state.iterations() * kStageSteps *
                          static_cast<int64_t>(base.size()));
}
BENCHMARK(BM_RoughenStage)->Arg(64)->Arg(1024);

void BM_FilterRun(benchmark::State& state) {
  Simulation& sim = World();
  // A representative history: two devices, ~30 seconds.
  DataCollector::ObjectHistory history;
  for (int t = 0; t < 4; ++t) history.entries.push_back({100 + t, 4});
  for (int t = 0; t < 4; ++t) history.entries.push_back({112 + t, 5});
  history.current_device = 5;
  history.previous_device = 4;

  FilterConfig config;
  config.num_particles = static_cast<int>(state.range(0));
  const ParticleFilter filter(&sim.graph(), &sim.deployment(), config);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Run(history, 140, rng));
  }
}
BENCHMARK(BM_FilterRun)->Arg(16)->Arg(64)->Arg(256);

void BM_SymbolicInfer(benchmark::State& state) {
  Simulation& sim = World();
  const SymbolicInference inference(&sim.anchors(), &sim.anchor_graph(),
                                    &sim.deployment(), &sim.deployment_graph(),
                                    SymbolicConfig{});
  DataCollector::ObjectHistory history;
  history.entries = {{100, 4}};
  history.current_device = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inference.Infer(history, 100 + state.range(0)));
  }
}
BENCHMARK(BM_SymbolicInfer)->Arg(5)->Arg(30)->Arg(120);

void BM_RangeQueryEvaluate(benchmark::State& state) {
  Simulation& sim = World();
  // Prime the table with every object's distribution at `now`.
  const int64_t now = sim.now();
  for (ObjectId id : sim.collector().KnownObjects()) {
    sim.pf_engine().InferObject(id, now);
  }
  const RangeQueryEvaluator eval(&sim.plan(), &sim.anchors());
  Rng rng(5);
  for (auto _ : state) {
    const Rect window = Experiment::RandomWindow(
        sim.plan(), state.range(0) / 100.0, rng);
    benchmark::DoNotOptimize(eval.Evaluate(sim.pf_engine().table(), window));
  }
}
BENCHMARK(BM_RangeQueryEvaluate)->Arg(1)->Arg(2)->Arg(5);

void BM_KnnQueryEvaluate(benchmark::State& state) {
  Simulation& sim = World();
  const int64_t now = sim.now();
  for (ObjectId id : sim.collector().KnownObjects()) {
    sim.pf_engine().InferObject(id, now);
  }
  const KnnQueryEvaluator eval(&sim.graph(), &sim.anchors(),
                               &sim.anchor_graph());
  Rng rng(6);
  for (auto _ : state) {
    const Point q = Experiment::RandomIndoorPoint(sim.anchors(), rng);
    benchmark::DoNotOptimize(eval.Evaluate(sim.pf_engine().table(), q,
                                           static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_KnnQueryEvaluate)->Arg(1)->Arg(3)->Arg(9);

void BM_EndToEndRangeQuery(benchmark::State& state) {
  // Full pipeline cost: pruning + inference (cache warm after the first
  // iterations) + evaluation, at a fresh timestamp each iteration.
  Simulation& sim = World();
  Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    sim.Run(1);
    const Rect window = Experiment::RandomWindow(sim.plan(), 0.02, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.pf_engine().EvaluateRange(window, sim.now()));
  }
}
BENCHMARK(BM_EndToEndRangeQuery)->Unit(benchmark::kMicrosecond);

void BM_SimulationStep(benchmark::State& state) {
  Simulation& sim = World();
  for (auto _ : state) {
    sim.Step();
  }
}
BENCHMARK(BM_SimulationStep)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ipqs

int main(int argc, char** argv) {
  // Peel off our own flags before google-benchmark sees (and rejects)
  // them; everything else passes through untouched.
  std::string metrics_json;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kMetricsFlag = "--metrics_json=";
    if (arg.substr(0, kMetricsFlag.size()) == kMetricsFlag) {
      metrics_json = arg.substr(kMetricsFlag.size());
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  ipqs::g_metrics_enabled = !metrics_json.empty();

  // IPQS_BENCH_JSON=<dir>: machine-readable twin of the console table
  // (google-benchmark's JSON format), same convention as bench_util's
  // BENCH_<figure>.json files, plus a per-sim-second time series of the
  // shared world's metrics (SERIES_micro_perf.json).
  // scripts/check_perf.py consumes the BENCH file.
  std::string bench_out;
  std::string bench_out_format;
  bool has_explicit_out = false;
  for (const char* arg : passthrough) {
    if (std::string_view(arg).substr(0, 16) == "--benchmark_out=") {
      has_explicit_out = true;
    }
  }
  std::string series_dir;
  if (const char* dir = std::getenv("IPQS_BENCH_JSON");
      dir != nullptr && *dir != '\0') {
    series_dir = dir;
    ipqs::g_series_enabled = true;
    if (!has_explicit_out) {
      bench_out =
          "--benchmark_out=" + std::string(dir) + "/BENCH_micro_perf.json";
      bench_out_format = "--benchmark_out_format=json";
      passthrough.push_back(bench_out.data());
      passthrough.push_back(bench_out_format.data());
    }
  }

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  // Which world the numbers come from: the JSON output carries these in
  // its "context" block.
  benchmark::AddCustomContext("ipqs_fast", ipqs::bench::FastMode() ? "1" : "0");
  benchmark::AddCustomContext("world_objects",
                              std::to_string(ipqs::WorldObjects()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!metrics_json.empty()) {
    if (!ipqs::Registry().WriteJsonFile(metrics_json)) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_json.c_str());
      return 1;
    }
    std::printf("metrics written: %s\n", metrics_json.c_str());
  }
  if (ipqs::g_series_enabled && ipqs::Sampler().size() > 0) {
    const std::string path = series_dir + "/SERIES_micro_perf.json";
    std::ofstream os(path, std::ios::trunc);
    ipqs::Sampler().WriteJson(os);
    if (os.good()) {
      std::printf("time series written: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write time series to %s\n", path.c_str());
    }
  }
  return 0;
}
