#ifndef IPQS_QUERY_SUBSCRIPTION_H_
#define IPQS_QUERY_SUBSCRIPTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/continuous.h"
#include "query/query_scheduler.h"

namespace ipqs {

using SubscriptionId = int64_t;

struct SubscriptionManagerConfig {
  // Off = every registered subscription is re-evaluated on every tick (the
  // poll-everything baseline the differential tests compare against).
  // Answers are byte-identical either way; only the work changes.
  bool incremental = true;
  // Safety margin subtracted from every predicted candidate-set expansion
  // time, absorbing floating-point slop in the crossing-time arithmetic. A
  // tick landing inside the margin re-evaluates one tick early — never
  // late.
  double margin_seconds = 1.0;
  // Membership threshold used by AddRange(window) without an explicit one.
  double default_membership_threshold = 0.5;
  // With `metrics` set, the manager registers sub.* counters/histograms
  // under `metrics_prefix`; otherwise it keeps a private registry (the
  // SubscriptionStats snapshot works either way).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "sub";
};

// Delta emitted for one subscription by one tick. `evaluated` marks
// whether the subscription was actually re-evaluated (dirty) or served its
// cached answer (clean — the delta is then empty by construction).
struct SubscriptionUpdate {
  SubscriptionId id = -1;
  BatchQuery::Kind kind = BatchQuery::Kind::kRange;
  bool evaluated = false;
  RangeUpdate range;  // kind == kRange.
  KnnUpdate knn;      // kind == kKnn.
};

struct SubscriptionTickResult {
  int64_t time = 0;
  int64_t evaluated = 0;  // Subscriptions re-evaluated this tick.
  int64_t skipped = 0;    // Served their cached answer untouched.
  std::vector<SubscriptionUpdate> updates;  // Ascending by subscription id.
};

struct SubscriptionStats {
  int64_t ticks = 0;
  int64_t evaluated = 0;
  int64_t skipped = 0;
  int64_t changes_seen = 0;  // Applied collector changes drained.

  friend bool operator==(const SubscriptionStats&,
                         const SubscriptionStats&) = default;
};

// Standing-query subscriptions with incremental evaluation — the
// continuous-query future work of Section 6, engineered for serving:
// register range/kNN queries once, call Tick(now) after each ingest
// second, and only the subscriptions whose answers COULD have changed are
// re-evaluated (batched through the QueryScheduler so shared candidates
// are inferred once). The rest serve their cached answer with an empty
// delta.
//
// A subscription is provably unchanged at `now` when ALL of:
//  1. its last answer is time-invariant: every candidate's inferred
//     distribution is "settled" — the PF resume is a zero-advance no-op
//     (history older than max_coast_seconds, cached state pinned at
//     last_reading + max_coast) or the method ignores `now` outright
//     (kLastReading). Settledness is re-verified each tick against the
//     live history and ParticleCache (device, last-reading time, probed
//     state time), so hand-offs, evictions and restores dirty the
//     subscription even if the change log missed them;
//  2. no applied reading touched a candidate, and no changed non-candidate
//     entered the subscription's reach: for range, its grown uncertain
//     region now overlaps the window's footprint (the rectangles range
//     pruning tests, RangeQueryEvaluator::Footprint); for kNN, its
//     distance interval's lower bound dipped under the (uniformly growing)
//     pruning bound f;
//  3. `now` is before the subscription's predicted expansion time — the
//     earliest instant ANY non-candidate's uncertain region could reach
//     the footprint / the f-bound, maintained from the crossing-time
//     arithmetic at evaluation and tightened as changed objects are
//     tested (margin_seconds early, never late).
//
// Determinism: identical registered subscriptions ticked at identical
// times over an identical collector answer byte-identically whether
// incremental is on or off, at any thread count — pinned by
// tests/subscription_test.cc.
//
// The manager never perturbs ad-hoc queries: it only reads the collector
// and probes (never mutates) the engine's cache outside of the batched
// evaluations it issues, and those go through the same QueryScheduler path
// any frontend uses.
class SubscriptionManager {
 public:
  explicit SubscriptionManager(QueryEngine* engine,
                               const SubscriptionManagerConfig& config = {});

  SubscriptionId AddRange(const Rect& window);
  SubscriptionId AddRange(const Rect& window, double membership_threshold);
  SubscriptionId AddKnn(const Point& point, int k);
  void Remove(SubscriptionId id);
  size_t size() const { return subs_.size(); }

  // Re-evaluates every dirty subscription at `now` (one scheduler batch)
  // and emits per-subscription deltas. `now` must not decrease across
  // calls. With non-null `explains`, fills one provenance record per
  // EVALUATED subscription (in the updates' evaluated order).
  SubscriptionTickResult Tick(int64_t now);
  SubscriptionTickResult Tick(int64_t now,
                              std::vector<obs::QueryExplain>* explains);
  // Ticks only if `now` is newer than the last tick (idempotent per
  // second); serves monitors that poll mid-second.
  void EnsureTick(int64_t now);

  // Cached full answer of a subscription (valid after its first tick).
  const BatchAnswer& Answer(SubscriptionId id) const;
  // Thresholded membership of a range subscription, maintained tick over
  // tick from the emitted deltas' algebra.
  const std::map<ObjectId, double>& RangeMembers(SubscriptionId id) const;
  // Current top-k of a kNN subscription, most probable first.
  const std::vector<ObjectId>& KnnCurrent(SubscriptionId id) const;

  SubscriptionStats stats() const;
  int64_t last_tick_time() const { return last_tick_time_; }
  const SubscriptionManagerConfig& config() const { return config_; }

 private:
  // Settledness pin for one candidate, verified each tick (see class
  // comment, condition 1). `probe` marks PF candidates whose cached state
  // must still probe resumable at exactly `state_time`; pins with `probe`
  // false (kLastReading) only require the history unchanged.
  struct CandidatePin {
    ObjectId object = kInvalidId;
    ReaderId device = kInvalidId;
    int64_t last_reading = 0;
    int64_t state_time = 0;
    bool probe = false;
  };

  struct Sub {
    SubscriptionId id = -1;
    BatchQuery query;
    double threshold = 0.5;  // kRange only.
    // kRange only: the window's pruning footprint, fixed for its lifetime.
    std::vector<Rect> footprint;
    // State of the last evaluation (-1 = never evaluated).
    int64_t last_eval = -1;
    BatchAnswer answer;
    std::vector<ObjectId> candidates;  // Sorted.
    std::vector<CandidatePin> pins;
    // All candidates settled at last_eval — the answer is time-invariant
    // while the pins hold and the candidate set cannot have grown.
    bool stable = false;
    // Earliest time a non-candidate could join the candidate set (margin
    // already subtracted); -inf when not stable, +inf when provably never.
    double next_expand = 0.0;
    // kKnn pruning state at last_eval: the f bound and the per-reader
    // distance bounds + slack it was computed through (dists empty when
    // pruning was off or the entries<=k / prune-degenerate cases made f
    // meaningless — any changed non-candidate then dirties the
    // subscription). With an interval-valued backend (the oracle's
    // landmark fallback) the clean checks stay sound by reading lower
    // bounds for s and upper bounds for l.
    double f = 0.0;
    SourceDistances dists;
    GraphLocation snapped;
    // Delta-algebra state (continuous.h helpers).
    std::map<ObjectId, double> members;  // kRange.
    std::vector<ObjectId> current;       // kKnn.
  };

  SubscriptionId Add(BatchQuery query, double threshold);

  // Condition checks for one subscription (see class comment). Both may
  // tighten sub.next_expand as a side effect of testing changed objects.
  bool PinsHold(const Sub& sub, int64_t now) const;
  bool ChangesClean(Sub& sub, const std::vector<ObjectId>& changed,
                    int64_t now);
  // Reader-health condition: a drained health transition dirties every
  // subscription it could touch — a range subscription when the reader's
  // zone intersects its window or a candidate was last seen by the reader,
  // and every kNN subscription (no window to test against). Transitions
  // dirty exactly the ticks they fire on; a reader that STAYS dead never
  // re-dirties by itself.
  bool HealthClean(const Sub& sub,
                   const std::vector<ReaderId>& transitioned) const;

  // Rebuilds a subscription's incremental state from its fresh evaluation.
  void RefreshState(Sub& sub, const BatchAnswer& answer,
                    const BatchSlotDetail& detail, int64_t now);

  QueryEngine* engine_;
  SubscriptionManagerConfig config_;
  QueryScheduler scheduler_;
  std::map<SubscriptionId, Sub> subs_;  // Ordered: ticks are deterministic.
  SubscriptionId next_id_ = 0;

  // Collector change-log cursor (valid when the log is enabled).
  uint64_t change_cursor_ = 0;
  bool cursor_primed_ = false;
  // Health-monitor transition-log cursor (valid when the engine has one).
  uint64_t health_cursor_ = 0;
  bool health_primed_ = false;
  int64_t last_tick_time_ = -1;
  // A subscription was added since the last tick (EnsureTick must tick
  // even within the same second, so its first answer exists).
  bool needs_tick_ = false;

  // sub.* metrics (own_registry_ backs them when config.metrics is null).
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Gauge* registered_ = nullptr;
  obs::Counter* ticks_ = nullptr;
  obs::Counter* dirty_ = nullptr;
  obs::Counter* evals_skipped_ = nullptr;
  obs::Counter* changes_seen_ = nullptr;
  obs::Histogram* delta_entries_ = nullptr;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_SUBSCRIPTION_H_
