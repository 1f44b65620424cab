#ifndef IPQS_QUERY_QUERY_ENGINE_H_
#define IPQS_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "filter/particle_cache.h"
#include "filter/particle_filter.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "graph/shortest_path.h"
#include "health/reader_health.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "query/uncertain_region.h"
#include "symbolic/symbolic_inference.h"

namespace ipqs {

// Which location inference backend feeds query evaluation.
enum class InferenceMethod {
  kParticleFilter,  // The paper's contribution (PF).
  kSymbolicModel,   // The paper's baseline (SM).
  // Naive floor: the object is wherever its last detecting reader is
  // (uniform over that reader's activation zone, regardless of how stale
  // the reading is). Not in the paper; a sanity comparator that shows
  // what the probabilistic models buy.
  kLastReading,
};

// Admission/downgrade policy for deadline-bound queries. The budget is
// deliberately a WORK bound, not a wall-clock one: a deadline of D ms buys
// D * filter_seconds_per_ms filter-seconds of inference, and the engine
// picks the highest quality level whose estimated work fits. Estimates
// derive only from object histories and cache state, so the chosen level —
// and therefore the answer — is a pure function of (seed, load), never of
// machine speed or scheduling. kFull is used whenever the work fits.
struct DegradePolicy {
  // Calibration: filter-seconds of inference work one millisecond of
  // deadline is assumed to buy. Raise on faster machines for more
  // aggressive admission; answers change only through the level choice.
  double filter_seconds_per_ms = 50.0;
  // kCachedStale serves a cached state as-is only when its age
  // (now - state.time) is within this bound.
  int64_t max_stale_age_seconds = 30;
  // Particle count for kReducedParticles runs (must be < filter Ns to
  // actually shed work).
  int reduced_particles = 16;
};

struct EngineConfig {
  InferenceMethod method = InferenceMethod::kParticleFilter;
  FilterConfig filter;
  SymbolicConfig symbolic;
  // Default per-query deadline in milliseconds; 0 disables degradation.
  // Per-call overloads of EvaluateRange/EvaluateKnn override it.
  int64_t deadline_ms = 0;
  DegradePolicy degrade;
  // u_max used by the query-aware optimization module's uncertain regions.
  double max_speed = 1.5;
  bool use_pruning = true;  // Query aware optimization module on/off.
  bool use_cache = true;    // Cache management module on/off (PF only).
  // Distance layer for kNN pruning, which only ever reads the network
  // distance from the query to each reader. On: one one-to-all table per
  // reader, built at construction, answers every query as R lookups at the
  // query location — exact, no per-query Dijkstra. Off: one exact Dijkstra
  // from the query point per kNN query, the reference path that
  // tests/distance_test.cc and bench/micro_qps's serial row compare
  // against. The two sum the same shortest paths in opposite directions,
  // so they can differ only by rounding; candidates and answers are held
  // identical across them.
  bool use_distance_index = true;
  uint64_t seed = 7;
  // Fan-out width for batch inference (EvaluateRange / EvaluateKnn /
  // InferBatch): per-object filter runs are spread over this many worker
  // threads. 1 = serial. Answers are identical at any setting — every
  // object's inference draws from its own (seed, object, timestamp)
  // stream (Rng::ForStream) and results merge in ascending object order.
  int num_threads = 1;
  // Observability. With `metrics` set, the engine registers per-stage
  // latency histograms, cache/pool counters, and the EngineStats counters
  // under `metrics_prefix` in that registry (engines sharing a registry
  // need distinct prefixes, or they share counters). With `metrics` null
  // the engine keeps a private registry for its EngineStats counters and
  // skips every timer — no clock is ever read, so the untouched cost is
  // zero. Neither knob perturbs query answers (metrics never feed RNG).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "engine";
  // When set, every query emits Chrome-tracing spans (whole query, prune /
  // infer / merge / evaluate stages, and one span per inferred object)
  // into this recorder; load the JSON in chrome://tracing or Perfetto.
  obs::TraceRecorder* trace = nullptr;
  // Optional reader-health monitor (src/health/). When set and enabled,
  //  * silence from suspect/dead readers no longer discounts particles in
  //    the negative-information branch (their silence is uninformative);
  //  * answers whose window or candidates touch a degraded reader carry
  //    coverage_degraded so consumers know coverage was impaired.
  // Null (or a disabled monitor) reports every reader healthy; the
  // collector-side liveness gate (a reader with zero readings system-wide
  // for a replayed second never discounts) applies regardless.
  const ReaderHealthMonitor* health = nullptr;
};

// One query in a batch (QueryEngine::Serve, QueryScheduler).
struct BatchQuery {
  enum class Kind { kRange, kKnn };

  static BatchQuery Range(const Rect& window) {
    BatchQuery q;
    q.kind = Kind::kRange;
    q.window = window;
    return q;
  }
  static BatchQuery Knn(const Point& point, int k) {
    BatchQuery q;
    q.kind = Kind::kKnn;
    q.point = point;
    q.k = k;
    return q;
  }

  Kind kind = Kind::kRange;
  Rect window;  // kRange only.
  Point point;  // kKnn only.
  int k = 0;    // kKnn only.
};

// Answer slot for one BatchQuery; read the member matching its kind.
struct BatchAnswer {
  BatchQuery::Kind kind = BatchQuery::Kind::kRange;
  QueryResult range;
  KnnResult knn;
};

// Per-slot serving internals surfaced to callers that maintain incremental
// state on top of the batch (the SubscriptionManager): the canonical
// candidate set the slot's answer was restricted to, and — for kNN — the
// snapped query location plus the per-reader distances that pruning (or
// the prune-only fallback) read. `dists` is empty for range queries and
// whenever no distances were read.
struct BatchSlotDetail {
  std::vector<ObjectId> candidates;
  GraphLocation snapped;
  SourceDistances dists;
};

struct EngineStats {
  int64_t queries = 0;
  int64_t objects_considered = 0;   // Known objects summed over queries.
  int64_t candidates_inferred = 0;  // Objects surviving pruning.
  int64_t filter_runs = 0;          // Full Algorithm 2 executions.
  int64_t filter_resumes = 0;       // Cache-hit resumptions.
  int64_t filter_seconds = 0;       // Total filtered seconds (work proxy).
};

// How often deadline pressure pushed answers down the quality ladder.
struct DegradeStats {
  int64_t full = 0;               // Queries answered at kFull.
  int64_t cached_stale = 0;       // ... at kCachedStale.
  int64_t reduced_particles = 0;  // ... at kReducedParticles.
  int64_t prune_only = 0;         // ... at kPruneOnly.
  int64_t stale_served_objects = 0;  // Objects served a cached state as-is.
};

// The end-to-end indoor spatial query evaluation system (Figure 3): data
// collector -> query aware optimization -> inference (particle filter with
// cache, or symbolic baseline) -> APtoObjHT -> query evaluation.
//
// The engine owns no simulation state; it reads the shared DataCollector
// and lazily infers location distributions for candidate objects at query
// time, memoizing them in the APtoObjHT for as long as the timestamp and
// the collector's version stay put.
//
// Every query runs through one pipeline, Serve(): a serial EvaluateRange /
// EvaluateKnn call is a batch of one, QueryScheduler is its batched front
// end, and HistoricalEngine serves past instants through an engine over a
// restored collector.
//
// Determinism guarantee: the distribution inferred for an object at a
// timestamp is a pure function of (engine seed, that object's history,
// timestamp) — independent of candidate order, of which other objects were
// inferred before it, of pruning, and of num_threads. With the cache
// enabled the filter resumes from the cached state instead of replaying
// the whole history, so the (identical-across-threads) answer additionally
// depends on which timestamps were previously queried.
class QueryEngine {
 public:
  QueryEngine(const WalkingGraph* graph, const FloorPlan* plan,
              const AnchorPointIndex* anchors, const AnchorGraph* anchor_graph,
              const Deployment* deployment,
              const DeploymentGraph* deployment_graph,
              const DataCollector* collector, const EngineConfig& config);

  // Probability each object lies in `window` at time `now`. Uses
  // config.deadline_ms (0 = never degrade); the overload takes an explicit
  // per-query deadline. The answer's `quality` field reports the level the
  // admission policy chose.
  QueryResult EvaluateRange(const Rect& window, int64_t now);
  QueryResult EvaluateRange(const Rect& window, int64_t now,
                            int64_t deadline_ms);
  // With a non-null `explain`, additionally fills a provenance record for
  // the query (see obs/explain.h). Collection is strictly observational:
  // the answer is byte-identical with explain on or off (pinned by
  // tests/determinism_test.cc) — nothing read for the record feeds the
  // RNG, the cache, or the admission decision.
  QueryResult EvaluateRange(const Rect& window, int64_t now,
                            int64_t deadline_ms, obs::QueryExplain* explain);

  // Probabilistic kNN at time `now` (Algorithm 4 result semantics), with
  // the same deadline handling as EvaluateRange.
  KnnResult EvaluateKnn(const Point& query, int k, int64_t now);
  KnnResult EvaluateKnn(const Point& query, int k, int64_t now,
                        int64_t deadline_ms);
  KnnResult EvaluateKnn(const Point& query, int k, int64_t now,
                        int64_t deadline_ms, obs::QueryExplain* explain);

  // Location distribution of one object at `now`, inferring it if needed;
  // nullptr when the object has never been detected.
  const AnchorDistribution* InferObject(ObjectId object, int64_t now);

  // What a Serve pass shared across its batch, for the scheduler's qps.*
  // metrics.
  struct ServeCounts {
    int64_t duplicate_queries = 0;  // Slots collapsed by dedup.
    int64_t candidate_slots = 0;    // Sum of per-query candidate set sizes.
    int64_t unique_candidates = 0;  // Size of their union.
  };

  // The query pipeline (Figure 3) every query runs through, once per batch
  // of queries sharing one timestamp:
  //   1. dedup    — byte-identical queries collapse to one evaluation whose
  //                 answer is copied to every duplicate slot;
  //   2. prune    — each distinct query computes its canonical (ascending,
  //                 unique) candidate set;
  //   3. plan     — ONE admission decision for the union of the candidate
  //                 sets, so a deadline's work budget is charged per unique
  //                 object, not per query;
  //   4. infer    — one InferBatch over the union populates the APtoObjHT
  //                 (or one degraded scratch table);
  //   5. evaluate — each distinct query is answered from that table
  //                 restricted to its own candidates, so no answer depends
  //                 on what other queries at `now` inferred;
  //   6. coverage — reader-health annotation per answer;
  //   7. explain  — provenance records, when requested.
  // answers[i] answers batch[i]; `explains` and `details` are either empty
  // or batch.size() long (slot i describes batch[i]; duplicates carry their
  // representative's record with `deduped` set). Explain and detail
  // collection is strictly observational. The prune / infer / merge /
  // evaluate stage timers and spans record once per pass.
  ServeCounts Serve(std::span<const BatchQuery> batch, int64_t now,
                    int64_t deadline_ms, std::span<BatchAnswer> answers,
                    std::span<obs::QueryExplain> explains = {},
                    std::span<BatchSlotDetail> details = {});

  // Infers every not-yet-memoized candidate at `now`, fanning per-object
  // filter runs across the thread pool (config.num_threads workers) and
  // merging the resulting distributions into the APtoObjHT in ascending
  // object order on the calling thread. Duplicate, unknown, and already
  // memoized candidates are skipped.
  void InferBatch(const std::vector<ObjectId>& candidates, int64_t now);

  const EngineConfig& config() const { return config_; }
  // The registry backing the engine's counters: config.metrics, or a
  // private one when that is null.
  obs::MetricsRegistry* registry() const { return metrics_; }
  EngineStats stats() const;
  DegradeStats degrade_stats() const;
  ParticleCache::Stats cache_stats() const { return cache_.stats(); }
  void ResetStats();

  // Particle-cache contents, for the persistence layer (src/persist/).
  // Restoring the cache of a crashed engine makes the recovered engine's
  // cache-dependent answers byte-identical to the uninterrupted run's.
  std::vector<ParticleCache::PersistedEntry> ExportCacheEntries() const {
    return cache_.ExportEntries();
  }
  void RestoreCacheEntries(std::vector<ParticleCache::PersistedEntry> entries) {
    cache_.RestoreEntries(std::move(entries));
  }

  // The current APtoObjHT (valid for the last queried timestamp and
  // collector version).
  const AnchorObjectTable& table() const { return table_; }

 private:
  // The subscription manager (query/subscription.h) probes the particle
  // cache and reads the collector/config to decide which standing queries
  // can provably serve their cached answer unchanged.
  friend class SubscriptionManager;

  // The registry counters backing the EngineStats snapshot (always
  // non-null: they live in config.metrics or in own_registry_).
  struct StatCounters {
    obs::Counter* queries = nullptr;
    obs::Counter* objects_considered = nullptr;
    obs::Counter* candidates_inferred = nullptr;
    obs::Counter* filter_runs = nullptr;
    obs::Counter* filter_resumes = nullptr;
    obs::Counter* filter_seconds = nullptr;
  };
  // Per-stage latency histograms; all null when config.metrics is null
  // (ScopedTimer on a null histogram never reads the clock).
  struct StageTimers {
    obs::Histogram* range_latency_ns = nullptr;
    obs::Histogram* knn_latency_ns = nullptr;
    obs::Histogram* prune_ns = nullptr;
    obs::Histogram* infer_ns = nullptr;
    obs::Histogram* merge_ns = nullptr;
    obs::Histogram* evaluate_ns = nullptr;
    obs::Histogram* snap_ns = nullptr;
  };

  struct DegradeCounters {
    obs::Counter* full = nullptr;
    obs::Counter* cached_stale = nullptr;
    obs::Counter* reduced_particles = nullptr;
    obs::Counter* prune_only = nullptr;
    obs::Counter* stale_served_objects = nullptr;
  };

  // The admission decision for one deadline-bound query: which rung of the
  // quality ladder to serve from, and which candidates go down which path.
  struct InferPlan {
    QualityLevel level = QualityLevel::kFull;
    std::vector<ObjectId> stale;  // Serve cached state as-is (L1/L2).
    std::vector<ObjectId> infer;  // Freshly infer (full or reduced Ns).
  };

  // Registers every metric under config.metrics_prefix and wires the
  // filter, cache, and (lazily) the thread pool.
  void InitObservability();

  // Serve() on a batch of one: the serial EvaluateRange / EvaluateKnn path.
  // Its explain record keeps batched = false and batch_size = 0.
  BatchAnswer ServeOne(const BatchQuery& query, int64_t now,
                       int64_t deadline_ms, obs::QueryExplain* explain);

  // Drops memoized distributions when the query timestamp or the
  // collector's version moves: a memo is valid for one (now, version).
  void SyncTableTo(int64_t now);

  // The collector's detected objects with their newest entries, ascending
  // by object (KnownObjectsOf), rebuilt only when the collector's version
  // moves. Pruning, objects_considered and the subscription reach loops
  // read this instead of the collector's hash map.
  std::span<const KnownObject> ObjectView();

  // The pure per-object inference: draws only from the (seed, object, now)
  // stream and touches no engine state besides the (sharded, locked)
  // particle cache and the atomic stats. Safe to call concurrently for
  // distinct objects. Returns nullopt for an empty history.
  std::optional<AnchorDistribution> ComputeInference(ObjectId object,
                                                     int64_t now);

  // ComputeInference with an explicit filter and cache policy; the
  // degraded path uses it to run reduced-particle inference that neither
  // reads nor pollutes the full-quality cache.
  std::optional<AnchorDistribution> ComputeInferenceWith(
      ObjectId object, int64_t now, const ParticleFilter& filter,
      bool cache_read, bool cache_write);

  // Why PlanInference chose the level it chose, for explain records. The
  // reason vocabulary is part of the stable explain output: no_deadline |
  // full_fits | stale_fits | reduced_fits | budget_exhausted.
  struct PlanDecision {
    const char* reason = "no_deadline";
    double budget = -1.0;       // Filter-seconds the deadline bought.
    double est_full = -1.0;     // Cost of the kFull plan (-1 = not costed).
    double est_stale = -1.0;    // ... of the kCachedStale plan.
    double est_reduced = -1.0;  // ... of the kReducedParticles plan.
  };

  // Picks the highest quality level whose estimated filter-seconds fit
  // deadline_ms * degrade.filter_seconds_per_ms. Pure function of the
  // candidates' histories and the cache state (work estimates, not clocks).
  // `candidates` must be canonical (ascending, unique). A non-null
  // `decision` receives the budget arithmetic for provenance; passing it
  // never changes the plan.
  InferPlan PlanInference(const std::vector<ObjectId>& candidates,
                          int64_t now, int64_t deadline_ms,
                          PlanDecision* decision = nullptr);

  // Runs a degraded (L1/L2) plan into `out` — a scratch table, so degraded
  // distributions are never memoized for later full-quality queries.
  void ExecuteDegradedPlan(const InferPlan& plan, int64_t now,
                           AnchorObjectTable* out);
  // Counts `queries` answers served at the plan's level.
  void CountPlan(const InferPlan& plan, int64_t queries);

  // Explain-record helpers, all strictly observational (non-mutating cache
  // probes, counter reads): classifies each candidate's cache outcome and
  // captures the collector's reorder-buffer state at query time.
  void ProbeCacheOutcomes(const std::vector<ObjectId>& candidates, int64_t now,
                          obs::QueryExplain* explain) const;
  void FillIngestContext(obs::QueryExplain* explain) const;
  // Counter values before the query ran, for charging deltas to explain.
  struct ExplainBaseline {
    int64_t filter_runs = 0;
    int64_t filter_resumes = 0;
    int64_t filter_seconds = 0;
    int64_t stale_served = 0;
  };
  ExplainBaseline CaptureBaseline() const;
  void ChargeDeltas(const ExplainBaseline& before,
                    obs::QueryExplain* explain) const;

  // Whether this answer's coverage is impaired by degraded readers: any
  // non-healthy reader's activation zone intersects `window` (when given),
  // or any candidate's current detecting device is degraded. Pure read of
  // the monitor's view — never perturbs the answer probabilities.
  bool CoverageDegraded(const std::vector<ObjectId>& candidates,
                        const Rect* window) const;

  // The kPruneOnly answers, from uncertain regions alone; `candidates`
  // must be canonical.
  QueryResult PruneOnlyRange(const std::vector<ObjectId>& candidates,
                             const Rect& window, int64_t now) const;
  KnnResult PruneOnlyKnn(const std::vector<ObjectId>& candidates,
                         const SourceDistances& dists, int k,
                         int64_t now) const;

  // The query-to-reader distances a kNN query's pruning reads (see
  // SourceDistances in query/uncertain_region.h): reader_tables_ lookups
  // at the query location when config.use_distance_index is on, else one
  // exact Dijkstra from the query.
  SourceDistances DistancesFor(const GraphLocation& query);

  const WalkingGraph* graph_;
  const AnchorPointIndex* anchors_;
  const Deployment* deployment_;
  const DataCollector* collector_;
  EngineConfig config_;

  // Bridges the collector's liveness gate and (when configured) the health
  // monitor into the filters' negative-information branch.
  HealthSilenceTrust silence_trust_;
  ParticleFilter filter_;
  // Reduced-Ns twin of filter_ for kReducedParticles runs; null when the
  // policy's reduced_particles is not usable (< 1).
  std::unique_ptr<ParticleFilter> degraded_filter_;
  SymbolicInference symbolic_;
  ParticleCache cache_;
  RangeQueryEvaluator range_eval_;
  KnnQueryEvaluator knn_eval_;
  // One one-to-all table per reader, sourced at its position and indexed
  // by ReaderId; empty when config.use_distance_index is off. Immutable
  // after construction (readers never move).
  std::vector<OneToAllDistances> reader_tables_;

  AnchorObjectTable table_;
  int64_t table_time_ = -1;
  uint64_t table_version_ = 0;

  std::vector<KnownObject> view_;
  std::optional<uint64_t> view_version_;

  // Observability (see EngineConfig::metrics). own_registry_ backs the
  // EngineStats counters when no external registry was configured.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* metrics_ = nullptr;
  StatCounters counters_;
  DegradeCounters degrade_counters_;
  StageTimers timers_;
  obs::TraceRecorder* trace_ = nullptr;

  // Lazily created on first batch when num_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_QUERY_ENGINE_H_
