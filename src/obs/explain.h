#ifndef IPQS_OBS_EXPLAIN_H_
#define IPQS_OBS_EXPLAIN_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ipqs {
namespace obs {

// Per-query provenance record: WHY a query answered the way it did and how
// healthy the serving path was at that moment. The engine fills one of
// these (opt-in, caller-provided) alongside the answer; collection must
// never perturb the answer itself — explain on/off is pinned
// byte-identical by tests/determinism_test.cc.
//
// The obs layer sits below query/, so enumerations from upper layers
// (QualityLevel, query kinds) appear here as their stable string forms.
struct QueryExplain {
  // ---- Identity -------------------------------------------------------
  std::string kind;        // "range" | "knn".
  int64_t now = 0;         // Evaluation timestamp (sim seconds).
  int64_t deadline_ms = 0; // 0 = no deadline.
  int k = 0;               // kNN only; 0 for range queries.

  // ---- Candidate provenance ------------------------------------------
  bool pruning_enabled = false;
  int64_t objects_known = 0;  // Collector-known objects (pre-pruning).
  int64_t candidates = 0;     // Survivors of grid/uncertain-region pruning
                              // (canonicalized; what inference considers).

  // ---- Per-object cache outcomes (probed before inference) -----------
  // hit: a resumable cached state exists; stale: a cached state exists but
  // only the degraded stale-serve rung could use it; miss: no usable entry.
  int64_t cache_hits = 0;
  int64_t cache_stale = 0;
  int64_t cache_misses = 0;

  // ---- Degradation decision ------------------------------------------
  std::string quality;        // Rung served: full | cached_stale |
                              // reduced_particles | prune_only.
  // Reader-health annotation: a degraded reader's zone or detections touch
  // this answer (coverage over part of the queried space was impaired).
  bool coverage_degraded = false;
  std::string budget_reason;  // Why that rung: no_deadline | full_fits |
                              // stale_fits | reduced_fits |
                              // budget_exhausted.
  // The work budget the deadline bought (filter-seconds; -1 = no deadline)
  // and the policy's estimated cost of each rung (-1 = not evaluated).
  double budget_filter_seconds = -1.0;
  double est_full_cost = -1.0;
  double est_stale_cost = -1.0;
  double est_reduced_cost = -1.0;

  // ---- Work charged by this query -------------------------------------
  int64_t filter_runs = 0;     // Full from-scratch filter executions.
  int64_t filter_resumes = 0;  // Cache-hit resumptions.
  int64_t filter_seconds = 0;  // Filter-seconds of inference charged.
  int64_t stale_served_objects = 0;  // Objects served a cached state as-is.

  // ---- Per-stage wall time (ns; 0 when include_timings is false) ------
  int64_t prune_ns = 0;
  int64_t infer_ns = 0;
  int64_t evaluate_ns = 0;
  int64_t total_ns = 0;

  // ---- Ingest context at query time ------------------------------------
  // What the collector had (and had not yet) released when this query ran:
  // answers near the watermark may lag staged readings by design.
  int64_t ingest_watermark = 0;     // INT64_MIN = no reorder buffer armed.
  int64_t ingest_staged = 0;        // Readings held in the reorder buffer.
  int64_t ingest_late_dropped = 0;  // Lifetime late-drop count at query time.

  // ---- Batch context (QueryScheduler) ----------------------------------
  bool batched = false;
  int64_t batch_size = 0;  // Queries in the batch this answer came from.
  bool deduped = false;    // This slot reused another slot's evaluation.

  // ---- Result summary --------------------------------------------------
  int64_t result_objects = 0;
  double result_total_probability = 0.0;

  // Stable JSON: keys in fixed order, doubles via %.6g. With
  // include_timings false the *_ns fields are emitted as 0 so records can
  // be golden-pinned across machines.
  void WriteJson(std::ostream& os, bool include_timings = true) const;
  std::string ToJson(bool include_timings = true) const;
};

// JSON array of records (one line per record), for batch exports.
void WriteExplainsJson(std::ostream& os,
                       const std::vector<QueryExplain>& explains,
                       bool include_timings = true);

}  // namespace obs
}  // namespace ipqs

#endif  // IPQS_OBS_EXPLAIN_H_
