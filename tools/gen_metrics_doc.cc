// Generates docs/METRICS.md from the live metric registry.
//
// The tool stands up a small fully-featured world (threads, faults,
// deadline, batching, persistence metrics) so every metric the system can
// register actually registers, then walks the registry and pairs each name
// with its description from the table below. Drift fails loudly in both
// directions: a registered metric with no description exits nonzero (new
// code must document its metrics here), and a described metric that never
// registered exits nonzero too (the table can't go stale).
//
//   gen_metrics_doc --out=docs/METRICS.md          # (re)generate
//   gen_metrics_doc --out=docs/METRICS.md --check  # CI: diff, don't write
//
// The default serving SLOs (obs/slo.h) are documented in the same file so
// the alert catalogue lives next to the series it reads.

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/slo.h"
#include "persist/checkpoint.h"
#include "persist/io_util.h"
#include "query/query_scheduler.h"
#include "sim/simulation.h"

namespace {

using ipqs::obs::RegistrySnapshot;

// Engine metrics register once per engine prefix ("pf" and "sm"); they are
// documented once under "<engine>". Everything else is documented under
// its literal name.
std::string DocKey(const std::string& name) {
  if (name.rfind("pf.", 0) == 0 || name.rfind("sm.", 0) == 0) {
    return "<engine>" + name.substr(2);
  }
  return name;
}

// name -> description, keyed by DocKey. Ordering here is the document
// ordering, so related metrics stay adjacent.
const std::vector<std::pair<std::string, std::string>>& Descriptions() {
  static const std::vector<std::pair<std::string, std::string>> kDocs = {
      // Engine serving path.
      {"<engine>.engine.queries", "Queries answered (range + kNN)."},
      {"<engine>.engine.objects_considered",
       "Known objects examined per query, before pruning."},
      {"<engine>.engine.candidates_inferred",
       "Objects that survived pruning and were (or would be) inferred."},
      {"<engine>.engine.filter_runs",
       "Cold particle-filter runs (no resumable cached state)."},
      {"<engine>.engine.filter_resumes",
       "Particle-filter runs resumed from a cached state."},
      {"<engine>.engine.filter_seconds",
       "Simulated seconds of reading history pushed through filters — the "
       "unit the deadline budget is charged in."},
      {"<engine>.query.range_latency_ns",
       "End-to-end serial range query wall time."},
      {"<engine>.query.knn_latency_ns",
       "End-to-end serial kNN query wall time."},
      {"<engine>.stage.prune_ns",
       "Candidate pruning stage wall time, once per serving pass (a serial "
       "query or a batch)."},
      {"<engine>.stage.infer_ns", "Inference stage wall time."},
      {"<engine>.stage.merge_ns",
       "Merging per-object distributions into the anchor table."},
      {"<engine>.stage.evaluate_ns",
       "Evaluating a pass's queries against the anchor table."},
      // Degradation ladder.
      {"<engine>.degrade.full", "Queries served at full quality."},
      {"<engine>.degrade.cached_stale",
       "Queries served from stale cached states (rung 2)."},
      {"<engine>.degrade.reduced_particles",
       "Queries served with a reduced particle count (rung 3)."},
      {"<engine>.degrade.prune_only",
       "Queries served from pruning alone, no inference (rung 4)."},
      {"<engine>.degrade.stale_served_objects",
       "Objects whose answer came from a stale cached state."},
      // Particle filter internals.
      {"<engine>.filter.run_ns", "Cold filter run wall time."},
      {"<engine>.filter.resume_ns", "Resumed filter run wall time."},
      {"<engine>.filter.predict_ns", "Motion-model predict step wall time."},
      {"<engine>.filter.weight_ns",
       "Measurement weighting step wall time."},
      {"<engine>.filter.resample_ns",
       "Resampling step wall time: normalize, ESS, resample and roughen."},
      {"<engine>.filter.roughen_ns",
       "Post-resample roughening wall time alone (nested in resample_ns)."},
      {"<engine>.filter.snap_ns",
       "Snapping particle positions to anchor points."},
      {"<engine>.filter.particles",
       "Particle count per object (gauge; drops under reduced-particle "
       "degradation)."},
      {"<engine>.filter.reseed_total",
       "Filter reseeds after particle-set collapse."},
      // Particle cache.
      {"<engine>.cache.hits", "Cache probes that found a resumable state."},
      {"<engine>.cache.misses", "Cache probes that found nothing usable."},
      {"<engine>.cache.invalidations",
       "Entries invalidated by newer readings."},
      {"<engine>.cache.stale_invalidations",
       "Entries invalidated after exceeding the stale-age bound."},
      {"<engine>.cache.evictions", "Entries evicted by capacity pressure."},
      {"<engine>.cache.served_stale",
       "Probes answered with a stale (non-resumable but recent) state."},
      // Worker pool (registered when num_threads > 0).
      {"<engine>.pool.tasks", "Per-object inference tasks executed."},
      {"<engine>.pool.steals", "Tasks stolen across worker queues."},
      {"<engine>.pool.queue_depth", "Tasks queued and not yet run (gauge)."},
      {"<engine>.pool.wait_ns", "Task queue wait time."},
      // Query scheduler (registered when batching is used).
      {"<engine>.qps.batches", "Query batches served."},
      {"<engine>.qps.queries", "Queries submitted through batches."},
      {"<engine>.qps.duplicate_queries",
       "Batch slots deduplicated against an identical earlier query."},
      {"<engine>.qps.candidate_slots",
       "Candidate-set sizes summed over distinct batch queries."},
      {"<engine>.qps.unique_candidates",
       "Unique objects per batch after merging candidate sets."},
      {"<engine>.qps.batch_size", "Batch size distribution."},
      // Standing-query subscriptions (registered when subscriptions are
      // configured; the dedicated subscription engine keeps its own
      // private registry, so only manager-level series appear here).
      {"sub.registered", "Standing subscriptions registered (gauge)."},
      {"sub.ticks", "Subscription evaluation ticks."},
      {"sub.dirty",
       "Subscription evaluations actually run (dirty at tick time)."},
      {"sub.evals_skipped",
       "Subscription evaluations skipped because the cached answer was "
       "provably current."},
      {"sub.changes_seen",
       "Tracking-table changes drained from the collector's change log."},
      {"sub.delta_entries",
       "Delta size (entered + left) per dirty subscription evaluation."},
      // Ingestion.
      {"collector.readings", "Raw readings ingested."},
      {"collector.entries", "Tracking-table entries created."},
      {"collector.handoffs", "Reader-to-reader hand-offs detected."},
      {"collector.events", "Enter/leave events emitted."},
      {"collector.objects", "Objects currently tracked (gauge)."},
      {"collector.reordered",
       "Readings repaired by the reorder buffer (arrived late, within the "
       "window)."},
      {"collector.duplicates_dropped", "Duplicate readings suppressed."},
      {"collector.late_dropped",
       "Readings dropped for arriving beyond the reorder window."},
      // Reader health (registered when the health monitor is on).
      {"health.transitions", "Reader health-state transitions, all kinds."},
      {"health.suspect_transitions", "Transitions into the suspect state."},
      {"health.dead_transitions", "Transitions into the dead state."},
      {"health.recovered_transitions",
       "Probation readers promoted back to healthy."},
      {"health.probation_reads",
       "Readings accepted from probation readers (flagged, not dropped)."},
      {"health.reader_down_seconds",
       "Reader-seconds spent suspect or dead (availability SLO numerator)."},
      {"health.reader_seconds",
       "Monitored reader-seconds (availability SLO denominator)."},
      {"health.degraded_readers",
       "Readers currently suspect or dead (gauge)."},
      // Fault injection (registered when any fault channel is on).
      {"faults.injected", "Faults injected into the reading stream."},
      {"faults.dropped", "Readings deleted by the dropout channel."},
      {"faults.duplicated", "Readings duplicated."},
      {"faults.delayed", "Readings delayed by the batch-delay channel."},
      {"faults.ghosts", "Ghost readings fabricated by the noise channel."},
      {"faults.skewed", "Readings with skewed timestamps."},
      // Durability (registered when persistence is enabled).
      {"persist.snapshots_written", "Serving-state snapshots written."},
      {"persist.wal_records_appended", "Write-ahead-log records appended."},
      {"persist.corrupt_snapshots_skipped",
       "Snapshots that failed validation during recovery."},
      {"persist.wal_tails_truncated",
       "Torn WAL tails truncated during recovery."},
      {"persist.snapshot_write_ns", "Snapshot serialization + fsync time."},
      {"persist.wal_fsync_ns", "WAL append fsync time."},
      {"persist.recovery_replay_ns", "WAL tail replay time at recovery."},
  };
  return kDocs;
}

// Registers every metric the system can register by running a tiny world
// with every subsystem enabled.
bool RegisterEverything(ipqs::obs::MetricsRegistry* registry) {
  using namespace ipqs;
  SimulationConfig config;
  config.trace.num_objects = 8;
  config.num_readers = 5;
  config.num_threads = 2;       // Pool metrics.
  config.deadline_ms = 50;      // Degradation path armed.
  config.faults.dropout_rate = 0.1;  // Fault metrics.
  config.collector.reorder_window_seconds = 2;
  config.num_subscriptions = 2;  // sub.* metrics (Step ticks the manager).
  config.health.enabled = true;  // health.* metrics.
  config.health.warmup_seconds = 5;
  config.health.suspect_after_seconds = 3;
  config.health.dead_after_seconds = 8;
  config.metrics = registry;
  auto sim = Simulation::Create(config);
  if (!sim.ok()) {
    std::fprintf(stderr, "cannot create simulation: %s\n",
                 sim.status().ToString().c_str());
    return false;
  }
  Simulation& s = **sim;
  s.Run(20);
  const Rect window = s.plan().BoundingBox();
  (void)s.pf_engine().EvaluateRange(window, s.now());
  (void)s.pf_engine().EvaluateKnn({1.0, 1.0}, 3, s.now());
  QueryScheduler scheduler(&s.pf_engine());
  (void)scheduler.EvaluateBatch({BatchQuery::Range(window)}, s.now());
  (void)persist::PersistMetrics::FromRegistry(registry);
  return true;
}

std::string TypeName(int type) {
  switch (type) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipqs;

  FlagParser flags(argc, argv);
  const std::string out_path = flags.GetString("out", "docs/METRICS.md");
  const bool check = flags.GetBool("check", false);
  if (const Status unused = flags.CheckUnused(); !unused.ok()) {
    std::fprintf(stderr, "%s\n", unused.ToString().c_str());
    return 1;
  }

  obs::MetricsRegistry registry;
  if (!RegisterEverything(&registry)) {
    return 1;
  }
  const RegistrySnapshot snap = registry.SnapshotAll();

  // DocKey -> (type, example names). Engine metrics collapse pf./sm. into
  // one row and record that both prefixes exist.
  std::map<std::string, std::pair<int, std::vector<std::string>>> registered;
  for (const auto& [name, value] : snap.counters) {
    registered[DocKey(name)].first = 0;
    registered[DocKey(name)].second.push_back(name);
  }
  for (const auto& [name, value] : snap.gauges) {
    registered[DocKey(name)].first = 1;
    registered[DocKey(name)].second.push_back(name);
  }
  for (const auto& [name, value] : snap.histograms) {
    registered[DocKey(name)].first = 2;
    registered[DocKey(name)].second.push_back(name);
  }

  // Both-direction sync check between the registry and Descriptions().
  bool drift = false;
  std::map<std::string, std::string> described;
  for (const auto& [key, desc] : Descriptions()) {
    described[key] = desc;
    if (registered.find(key) == registered.end()) {
      std::fprintf(stderr,
                   "gen_metrics_doc: described metric never registered: %s\n",
                   key.c_str());
      drift = true;
    }
  }
  for (const auto& [key, info] : registered) {
    if (described.find(key) == described.end()) {
      std::fprintf(stderr,
                   "gen_metrics_doc: registered metric has no description: "
                   "%s\n",
                   key.c_str());
      drift = true;
    }
  }
  if (drift) {
    return 1;
  }

  std::ostringstream md;
  md << "# Metrics reference\n\n";
  md << "<!-- Generated by tools/gen_metrics_doc.cc — do not edit by hand."
     << "\n     Regenerate: build/tools/gen_metrics_doc --out=docs/METRICS.md"
     << " -->\n\n";
  md << "Every counter, gauge, and histogram the system registers, in the\n"

        "order the code groups them. `<engine>` expands to `pf` (the\n"
        "particle-filter engine) and `sm` (the baseline engine): both\n"
        "register the same serving metrics under their own prefix.\n"
        "Histograms export count/sum/min/max and p50/p90/p99; all `_ns`\n"
        "series are wall-clock nanoseconds.\n\n";
  md << "| Metric | Type | Meaning |\n|---|---|---|\n";
  for (const auto& [key, desc] : Descriptions()) {
    const auto& info = registered.at(key);
    md << "| `" << key << "` | " << TypeName(info.first) << " | " << desc
       << " |\n";
  }

  md << "\n## Default serving SLOs\n\n";
  md << "Evaluated by `obs::SloMonitor` over the per-second time series\n"
        "(`run_experiment --slo_json=...`). An alert fires only when every\n"
        "window burns faster than its limit; burn rate 1.0 consumes the\n"
        "error budget exactly at the objective horizon.\n\n";
  md << "| SLO | Objective | Bad events | Total events | Windows |\n"
     << "|---|---|---|---|---|\n";
  for (const obs::SloSpec& spec : obs::DefaultServingSlos("<engine>")) {
    md << "| `" << spec.name << "` | " << spec.objective << " | ";
    if (spec.kind == obs::SloSpec::Kind::kLatency) {
      md << "samples with `" << spec.histogram << "` p99 > " << spec.threshold
         << "ns | samples seen | ";
    } else {
      for (size_t i = 0; i < spec.bad_counters.size(); ++i) {
        md << (i > 0 ? " + " : "") << "`" << spec.bad_counters[i] << "`";
      }
      md << " | ";
      for (size_t i = 0; i < spec.total_counters.size(); ++i) {
        md << (i > 0 ? " + " : "") << "`" << spec.total_counters[i] << "`";
      }
      md << " | ";
    }
    for (size_t i = 0; i < spec.windows.size(); ++i) {
      md << (i > 0 ? ", " : "") << spec.windows[i].seconds << "s burn<"
         << spec.windows[i].max_burn_rate;
    }
    md << " |\n";
  }

  const std::string generated = md.str();
  if (check) {
    std::string existing;
    const Status s = persist::ReadFileToString(out_path, &existing);
    if (!s.ok() || existing != generated) {
      std::fprintf(stderr,
                   "gen_metrics_doc: %s is out of date; regenerate with "
                   "gen_metrics_doc --out=%s\n",
                   out_path.c_str(), out_path.c_str());
      return 2;
    }
    std::printf("%s is in sync\n", out_path.c_str());
    return 0;
  }
  const Status s = persist::AtomicWriteFile(out_path, generated);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu metrics)\n", out_path.c_str(),
              Descriptions().size());
  return 0;
}
