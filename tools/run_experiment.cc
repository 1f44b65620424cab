// Command-line experiment driver: runs the full evaluation protocol on a
// configurable world and prints every metric. The knobs cover everything
// the paper sweeps plus this repo's extensions, so custom studies don't
// require writing C++.
//
//   run_experiment [--objects=200] [--particles=64] [--readers=19]
//                  [--range=2.0] [--window_pct=2] [--k=3]
//                  [--timestamps=50] [--windows=100] [--knn_points=30]
//                  [--warmup=240] [--seed=42] [--threads=1]
//                  [--pruning=true] [--cache=true] [--neg_info=false]
//                  [--batch_queries=false] [--distance_index=true]
//                  [--subscriptions=0] [--sub_poll_interval=1]
//                  [--sub_incremental=true]
//                  [--hallway_stops=0.0] [--building=<file>]
//                  [--fault_seed=0] [--dropout_rate=0.0] [--dup_rate=0.0]
//                  [--reorder_rate=0.0] [--reorder_window=0]
//                  [--batch_delay_rate=0.0] [--noise_rate=0.0]
//                  [--clock_skew=0]
//                  [--reader_health=false] [--health_suspect_after=5]
//                  [--health_dead_after=20] [--health_probation=5]
//                  [--checkpoint_dir=<dir>] [--checkpoint_interval=60]
//                  [--recover=false] [--deadline_ms=0]
//                  [--metrics_json=<file>] [--trace_out=<file>]
//                  [--explain=false] [--explain_json=<file>]
//                  [--timeseries_json=<file>] [--prometheus_out=<file>]
//                  [--slo_json=<file>] [--log_level=info]
//
// --threads=N fans per-object filter runs across N worker threads.
// Query answers are byte-identical at any thread count (each object's
// inference draws from its own (seed, object, timestamp) random stream);
// only the wall-clock time changes.
//
// With --building, the floor plan (and any `reader` lines) come from a
// text file in the floorplan/io.h format instead of the generated office.
//
// Query serving: --batch_queries=true serves each timestamp's queries as
// one QueryScheduler batch per engine (shared pruning tables, one
// inference pass over the union of candidates) — answers are
// byte-identical to serial serving, only throughput changes.
// --distance_index=false drops the per-reader distance tables kNN pruning
// reads and runs one exact Dijkstra from each query point instead — the
// reference path; answers are the same either way.
//
// Standing queries (src/query/subscription.h): --subscriptions=N registers
// N random range/kNN subscriptions against a dedicated engine and ticks
// them every --sub_poll_interval simulated seconds; the summary reports
// how many evaluations the incremental path skipped.
// --sub_incremental=false re-evaluates every subscription each tick (the
// poll-everything baseline) — deltas are byte-identical either way.
//
// Fault injection (src/faults/): the --dropout_rate / --dup_rate /
// --reorder_rate / --batch_delay_rate / --noise_rate / --clock_skew knobs
// degrade the reading stream deterministically under --fault_seed, and
// --reorder_window=N arms the collector's reorder buffer to repair
// deliveries late by at most N seconds. See EXPERIMENTS.md, "Fault
// ablation".
//
// Reader health (src/health/): --reader_health=true arms the per-reader
// health monitor — silence from suspect/dead readers stops discounting
// particles in the negative-information branch, answers touching degraded
// readers carry coverage_degraded, and the summary reports transition
// counts. --health_suspect_after / --health_dead_after /
// --health_probation tune the hysteresis windows (seconds).
//
// Durability (src/persist/): --checkpoint_dir=DIR appends every second's
// readings to a write-ahead log there and snapshots the serving state
// every --checkpoint_interval simulated seconds. --recover=true skips the
// experiment protocol, restores the serving state from DIR (newest valid
// snapshot + WAL tail), prints a recovery report, and answers a small
// deterministic query panel so recovered state can be compared across
// runs. --deadline_ms=D arms deadline-aware degradation: queries whose
// estimated inference work exceeds the budget are served from the quality
// ladder (see src/query/quality.h) and counted per level.
//
// Observability: --metrics_json=FILE dumps every counter, gauge, and
// per-stage latency histogram (p50/p90/p99) as stable JSON after the run;
// --trace_out=FILE records Chrome-tracing spans loadable in
// chrome://tracing or https://ui.perfetto.dev. --explain=true prints a
// per-query provenance summary (EXPLAIN) for the final timestamp's PF
// queries, and --explain_json=FILE writes the full records.
// --timeseries_json=FILE samples every metric once per simulated second
// into a ring and exports the series; --prometheus_out=FILE additionally
// writes the newest sample in Prometheus text exposition format.
// --slo_json=FILE evaluates the default serving SLOs (deadline misses,
// stale serving, ingest drops, p99 latency) with multi-window burn-rate
// alerting over those samples. None of these flags change any reported
// accuracy number — observability never feeds the random streams, and
// answers are byte-identical with them on or off.
//
// All JSON artifacts are written atomically (tmp + rename) and flushed on
// SIGINT/SIGTERM, so an interrupted sweep still leaves loadable files.

#include <csignal>
#include <cstdio>
#include <sstream>

#include "common/flags.h"
#include "common/logging.h"
#include "floorplan/io.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "persist/io_util.h"
#include "sim/experiment.h"

namespace {

// Everything the signal handler needs to flush, reachable from file scope.
// Plain pointers set once in main before the run starts; the handler is a
// best-effort dump (ostringstream is not async-signal-safe, but losing the
// artifacts for certain beats maybe-crashing while saving them).
struct ArtifactSink {
  std::string metrics_json;
  std::string trace_out;
  std::string timeseries_json;
  std::string prometheus_out;
  std::string slo_json;
  const ipqs::obs::MetricsRegistry* registry = nullptr;
  const ipqs::obs::TraceRecorder* recorder = nullptr;
  const ipqs::obs::TimeSeriesSampler* sampler = nullptr;
  const ipqs::obs::SloMonitor* slo = nullptr;
};
ArtifactSink g_sink;

// Writes one artifact atomically; false (with a stderr note) on failure.
template <typename WriteFn>
bool FlushOne(const std::string& path, WriteFn&& write) {
  if (path.empty()) {
    return true;
  }
  std::ostringstream out;
  write(out);
  const ipqs::Status s = ipqs::persist::AtomicWriteFile(path, out.str());
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return false;
  }
  return true;
}

// Flushes every configured artifact; returns false if any write failed.
bool FlushArtifacts() {
  bool ok = true;
  if (g_sink.registry != nullptr) {
    ok &= FlushOne(g_sink.metrics_json,
                   [](std::ostream& os) { g_sink.registry->WriteJson(os); });
  }
  if (g_sink.recorder != nullptr) {
    ok &= FlushOne(g_sink.trace_out,
                   [](std::ostream& os) { g_sink.recorder->WriteJson(os); });
  }
  if (g_sink.sampler != nullptr) {
    ok &= FlushOne(g_sink.timeseries_json,
                   [](std::ostream& os) { g_sink.sampler->WriteJson(os); });
    ok &= FlushOne(g_sink.prometheus_out, [](std::ostream& os) {
      g_sink.sampler->WritePrometheus(os);
    });
  }
  if (g_sink.slo != nullptr) {
    ok &= FlushOne(g_sink.slo_json,
                   [](std::ostream& os) { g_sink.slo->WriteJson(os); });
  }
  return ok;
}

void FlushAndExit(int sig) {
  FlushArtifacts();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipqs;

  FlagParser flags(argc, argv);
  ExperimentConfig config;
  config.sim.trace.num_objects = flags.GetInt("objects", 200);
  config.sim.filter.num_particles = flags.GetInt("particles", 64);
  config.sim.num_readers = flags.GetInt("readers", 19);
  config.sim.activation_range = flags.GetDouble("range", 2.0);
  config.window_area_fraction = flags.GetDouble("window_pct", 2.0) / 100.0;
  config.k = flags.GetInt("k", 3);
  config.num_timestamps = flags.GetInt("timestamps", 50);
  config.range_queries_per_timestamp = flags.GetInt("windows", 100);
  config.knn_query_points = flags.GetInt("knn_points", 30);
  config.warmup_seconds = flags.GetInt("warmup", 240);
  config.sim.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.sim.num_threads = flags.GetInt("threads", 1);
  if (config.sim.num_threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (got %d)\n",
                 config.sim.num_threads);
    return 1;
  }
  config.sim.use_pruning = flags.GetBool("pruning", true);
  config.sim.use_cache = flags.GetBool("cache", true);
  config.sim.use_distance_index = flags.GetBool("distance_index", true);
  config.batch_queries = flags.GetBool("batch_queries", false);
  config.sim.num_subscriptions = flags.GetInt("subscriptions", 0);
  config.sim.sub_poll_interval_seconds = flags.GetInt("sub_poll_interval", 1);
  config.sim.sub_incremental = flags.GetBool("sub_incremental", true);
  config.sim.filter.measurement.use_negative_information =
      flags.GetBool("neg_info", false);
  config.sim.trace.hallway_stop_probability =
      flags.GetDouble("hallway_stops", 0.0);

  config.sim.faults.seed =
      static_cast<uint64_t>(flags.GetInt("fault_seed", 0));
  config.sim.faults.dropout_rate = flags.GetDouble("dropout_rate", 0.0);
  config.sim.faults.duplicate_rate = flags.GetDouble("dup_rate", 0.0);
  config.sim.faults.reorder_rate = flags.GetDouble("reorder_rate", 0.0);
  config.sim.faults.batch_delay_rate =
      flags.GetDouble("batch_delay_rate", 0.0);
  config.sim.faults.noise_burst_rate = flags.GetDouble("noise_rate", 0.0);
  config.sim.faults.max_clock_skew_seconds = flags.GetInt("clock_skew", 0);
  config.sim.collector.reorder_window_seconds =
      flags.GetInt("reorder_window", 0);

  config.sim.health.enabled = flags.GetBool("reader_health", false);
  config.sim.health.suspect_after_seconds =
      flags.GetInt("health_suspect_after", 5);
  config.sim.health.dead_after_seconds = flags.GetInt("health_dead_after", 20);
  config.sim.health.probation_seconds = flags.GetInt("health_probation", 5);

  config.sim.persist.dir = flags.GetString("checkpoint_dir", "");
  config.sim.persist.snapshot_interval_seconds =
      flags.GetInt("checkpoint_interval", 60);
  const bool recover = flags.GetBool("recover", false);
  config.sim.persist_recover = recover;
  config.sim.deadline_ms =
      static_cast<int64_t>(flags.GetInt("deadline_ms", 0));
  if (recover && config.sim.persist.dir.empty()) {
    std::fprintf(stderr, "--recover requires --checkpoint_dir\n");
    return 1;
  }

  const std::string log_level = flags.GetString("log_level", "");
  if (!log_level.empty()) {
    const std::optional<LogLevel> level = ParseLogLevel(log_level);
    if (!level.has_value()) {
      std::fprintf(stderr,
                   "--log_level must be debug, info, warning, or error "
                   "(got %s)\n",
                   log_level.c_str());
      return 1;
    }
    SetLogLevel(*level);
  }

  const std::string metrics_json = flags.GetString("metrics_json", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  const bool explain = flags.GetBool("explain", false);
  const std::string explain_json = flags.GetString("explain_json", "");
  const std::string timeseries_json = flags.GetString("timeseries_json", "");
  const std::string prometheus_out = flags.GetString("prometheus_out", "");
  const std::string slo_json = flags.GetString("slo_json", "");
  const bool want_series =
      !timeseries_json.empty() || !prometheus_out.empty() || !slo_json.empty();
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  obs::TimeSeriesSampler sampler(&registry);
  obs::SloMonitor slo(&sampler, obs::DefaultServingSlos("pf"));
  if (!metrics_json.empty() || want_series) {
    config.sim.metrics = &registry;
  }
  if (!trace_out.empty()) {
    config.sim.trace_recorder = &recorder;
  }
  if (want_series) {
    config.sim.sampler = &sampler;
  }
  config.collect_explain = explain || !explain_json.empty();

  g_sink.metrics_json = metrics_json;
  g_sink.trace_out = trace_out;
  g_sink.timeseries_json = timeseries_json;
  g_sink.prometheus_out = prometheus_out;
  g_sink.slo_json = slo_json;
  g_sink.registry = &registry;
  g_sink.recorder = &recorder;
  if (want_series) {
    g_sink.sampler = &sampler;
    g_sink.slo = &slo;
  }
  std::signal(SIGINT, FlushAndExit);
  std::signal(SIGTERM, FlushAndExit);

  const std::string building = flags.GetString("building", "");
  if (!building.empty()) {
    auto spec = LoadBuildingFile(building);
    if (!spec.ok()) {
      std::fprintf(stderr, "cannot load building: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    config.sim.custom_plan = std::move(spec->plan);
    config.sim.custom_readers = std::move(spec->readers);
  }

  if (const Status unused = flags.CheckUnused(); !unused.ok()) {
    std::fprintf(stderr, "%s\n", unused.ToString().c_str());
    return 1;
  }

  if (recover) {
    // Recovery mode: restore the serving state and answer a deterministic
    // query panel instead of running the experiment protocol.
    auto sim = Simulation::Create(config.sim);
    if (!sim.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   sim.status().ToString().c_str());
      return 1;
    }
    Simulation& s = **sim;
    const RecoveryReport& report = s.recovery_report();
    std::printf("recovered:            now=%lld (%s, snapshot_time=%lld)\n",
                static_cast<long long>(s.now()),
                report.from_snapshot ? "snapshot + WAL tail" : "WAL only",
                static_cast<long long>(report.snapshot_time));
    std::printf(
        "replayed:             %zu WAL records in %.3f ms "
        "(%d corrupt snapshots skipped, %d torn WAL tails)\n",
        report.wal_records_replayed, report.replay_ns / 1e6,
        report.corrupt_snapshots_skipped, report.wal_tails_truncated);
    std::printf("known objects:        %zu\n",
                s.collector().KnownObjects().size());

    Rng& rng = s.query_rng();
    const int64_t now = s.now();
    for (int i = 0; i < 5; ++i) {
      const Rect window =
          Experiment::RandomWindow(s.plan(), config.window_area_fraction, rng);
      const QueryResult r = s.pf_engine().EvaluateRange(window, now);
      std::printf("range[%d]:             %zu objects, total p=%.6f (%s)\n", i,
                  r.objects.size(), r.TotalProbability(),
                  std::string(ToString(r.quality)).c_str());
    }
    const Point q = Experiment::RandomIndoorPoint(s.anchors(), rng);
    const KnnResult knn = s.pf_engine().EvaluateKnn(q, config.k, now);
    std::printf("knn:                  %zu objects, total p=%.6f (%s)\n",
                knn.result.objects.size(), knn.total_probability,
                std::string(ToString(knn.result.quality)).c_str());
    return FlushArtifacts() ? 0 : 1;
  }

  const auto result = Experiment(config).Run();
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("range KL divergence:  PF=%.4f  SM=%.4f  (%lld windows)\n",
              result->kl_pf, result->kl_sm,
              static_cast<long long>(result->range_windows_scored));
  std::printf("kNN hit rate:         PF=%.4f  SM=%.4f\n", result->hit_pf,
              result->hit_sm);
  std::printf("top-k success:        top1=%.4f  top2=%.4f\n", result->top1,
              result->top2);
  std::printf("PF work:              %lld runs, %lld resumes, %lld filtered "
              "seconds\n",
              static_cast<long long>(result->pf_stats.filter_runs),
              static_cast<long long>(result->pf_stats.filter_resumes),
              static_cast<long long>(result->pf_stats.filter_seconds));
  std::printf("cache hit rate:       %.3f\n", result->cache_stats.HitRate());
  if (config.sim.num_subscriptions > 0) {
    const SubscriptionStats& ss = result->sub_stats;
    const int64_t total = ss.evaluated + ss.skipped;
    std::printf(
        "subscriptions:        %d registered, %lld ticks, %lld/%lld "
        "evaluations skipped (%.1f%%), %lld changes drained\n",
        config.sim.num_subscriptions, static_cast<long long>(ss.ticks),
        static_cast<long long>(ss.skipped), static_cast<long long>(total),
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(ss.skipped) /
                         static_cast<double>(total),
        static_cast<long long>(ss.changes_seen));
  }
  if (config.sim.deadline_ms > 0) {
    const DegradeStats& d = result->pf_degrade;
    const int64_t degraded =
        d.cached_stale + d.reduced_particles + d.prune_only;
    const int64_t total = d.full + degraded;
    std::printf(
        "degraded answers:     %lld/%lld (%lld stale, %lld reduced, "
        "%lld prune-only; %lld objects served stale)\n",
        static_cast<long long>(degraded), static_cast<long long>(total),
        static_cast<long long>(d.cached_stale),
        static_cast<long long>(d.reduced_particles),
        static_cast<long long>(d.prune_only),
        static_cast<long long>(d.stale_served_objects));
  }
  if (config.sim.faults.Enabled()) {
    std::printf("faults:               %s\n",
                config.sim.faults.ToString().c_str());
    std::printf(
        "fault injections:     %lld total (%lld dropped, %lld dup, "
        "%lld delayed, %lld ghosts, %lld skewed)\n",
        static_cast<long long>(result->fault_stats.injected),
        static_cast<long long>(result->fault_stats.dropped),
        static_cast<long long>(result->fault_stats.duplicated),
        static_cast<long long>(result->fault_stats.delayed),
        static_cast<long long>(result->fault_stats.ghosts),
        static_cast<long long>(result->fault_stats.skewed));
    std::printf(
        "collector repairs:    %lld reordered, %lld duplicates dropped, "
        "%lld late dropped\n",
        static_cast<long long>(result->ingest_stats.reordered),
        static_cast<long long>(result->ingest_stats.duplicates_dropped),
        static_cast<long long>(result->ingest_stats.late_dropped));
  }

  if (config.sim.health.enabled) {
    const ReaderHealthStats& hs = result->health_stats;
    std::printf(
        "reader health:        %lld transitions (%lld suspect, %lld dead, "
        "%lld probation, %lld recovered)\n",
        static_cast<long long>(hs.Total()),
        static_cast<long long>(hs.suspect), static_cast<long long>(hs.dead),
        static_cast<long long>(hs.probation),
        static_cast<long long>(hs.recovered));
  }

  if (explain) {
    // Human-readable EXPLAIN for the final timestamp's PF queries: one
    // line per record, then the full JSON of the first record as a sample
    // of everything --explain_json captures.
    std::printf("explain:              %zu records (final timestamp)\n",
                result->explains.size());
    for (size_t i = 0; i < result->explains.size(); ++i) {
      const obs::QueryExplain& e = result->explains[i];
      std::printf(
          "  [%3zu] %-5s %-17s cand=%lld/%lld cache=%lld/%lld/%lld "
          "reason=%s total=%.3fms%s%s\n",
          i, e.kind.c_str(), e.quality.c_str(),
          static_cast<long long>(e.candidates),
          static_cast<long long>(e.objects_known),
          static_cast<long long>(e.cache_hits),
          static_cast<long long>(e.cache_stale),
          static_cast<long long>(e.cache_misses), e.budget_reason.c_str(),
          e.total_ns / 1e6, e.batched ? " batched" : "",
          e.deduped ? " deduped" : "");
    }
  }
  if (!explain_json.empty()) {
    const bool wrote =
        FlushOne(explain_json, [&result](std::ostream& os) {
          obs::WriteExplainsJson(os, result->explains);
        });
    if (!wrote) {
      return 1;
    }
    std::printf("explain written:      %s (%zu records)\n",
                explain_json.c_str(), result->explains.size());
  }
  if (!slo_json.empty()) {
    int firing = 0;
    for (const obs::SloState& state : slo.Evaluate()) {
      if (state.firing) {
        ++firing;
        std::printf("SLO FIRING:           %s (objective %.4f)\n",
                    state.name.c_str(), state.objective);
      }
    }
    if (firing == 0) {
      std::printf("SLOs:                 all quiet (%zu watched)\n",
                  slo.specs().size());
    }
  }

  if (!FlushArtifacts()) {
    return 1;
  }
  if (!metrics_json.empty()) {
    std::printf("metrics written:      %s\n", metrics_json.c_str());
  }
  if (!trace_out.empty()) {
    std::printf("trace written:        %s (%zu spans)\n", trace_out.c_str(),
                recorder.size());
  }
  if (!timeseries_json.empty()) {
    std::printf("time series written:  %s (%zu samples)\n",
                timeseries_json.c_str(), sampler.size());
  }
  if (!prometheus_out.empty()) {
    std::printf("prometheus written:   %s\n", prometheus_out.c_str());
  }
  if (!slo_json.empty()) {
    std::printf("slo report written:   %s\n", slo_json.c_str());
  }
  return 0;
}
