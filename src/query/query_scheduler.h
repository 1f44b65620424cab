#ifndef IPQS_QUERY_QUERY_SCHEDULER_H_
#define IPQS_QUERY_QUERY_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "query/query_engine.h"

namespace ipqs {

// Batched multi-query serving: takes a set of range/kNN queries that share
// one evaluation timestamp and answers all of them with the per-object
// inference work done ONCE per unique candidate object, instead of once
// per query that wants it.
//
// The scheduler is the batched front end of the engine's one query
// pipeline (QueryEngine::Serve: dedup -> prune -> plan -> infer ->
// evaluate -> coverage -> explain). On top of it the scheduler keeps the
// qps.* metrics, which count EvaluateBatch calls only, and marks its
// explain records as batched.
//
// Determinism: every answer is byte-identical to evaluating the same query
// alone through QueryEngine::EvaluateRange / EvaluateKnn at the same `now`
// (given the same engine cache state), because per-object inference is a
// pure function of (seed, object history, now) and evaluation is
// restricted to the query's own candidate set. Batching changes how much
// work is done, never what any query answers. The only intended exception
// is the deadline path: the batch admits ONE quality level for the whole
// union, where serial evaluation plans per query.
//
// Not thread-safe: one scheduler (like one engine) serves one batch at a
// time; the parallelism lives inside InferBatch.
class QueryScheduler {
 public:
  explicit QueryScheduler(QueryEngine* engine);

  // Answers batch[i] in answer slot i. Uses the engine's configured
  // deadline; the overload takes an explicit per-batch deadline (the
  // budget buys the union's inference, see above).
  std::vector<BatchAnswer> EvaluateBatch(const std::vector<BatchQuery>& batch,
                                         int64_t now);
  std::vector<BatchAnswer> EvaluateBatch(const std::vector<BatchQuery>& batch,
                                         int64_t now, int64_t deadline_ms);
  // With non-null `explains`, fills one provenance record per batch slot
  // (explains->at(i) describes batch[i]; resized to batch.size()).
  // Duplicate slots carry their distinct representative's record with
  // `deduped` set. Batch records share the union's admission decision and
  // charge the BATCH's inference work (a batched query's marginal cost is
  // exactly what batching makes shared). Collection never perturbs
  // answers — pinned by tests/determinism_test.cc.
  std::vector<BatchAnswer> EvaluateBatch(
      const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
      std::vector<obs::QueryExplain>* explains);
  // With non-null `details`, additionally fills one BatchSlotDetail per
  // batch slot (duplicate slots copy their representative's). Strictly
  // observational — answers never depend on whether details are collected.
  std::vector<BatchAnswer> EvaluateBatch(
      const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
      std::vector<obs::QueryExplain>* explains,
      std::vector<BatchSlotDetail>* details);

 private:
  QueryEngine* engine_;

  // qps.* metrics under the engine's metrics prefix.
  obs::Counter* batches_ = nullptr;
  obs::Counter* queries_ = nullptr;
  obs::Counter* duplicate_queries_ = nullptr;  // Collapsed by dedup.
  obs::Counter* candidate_slots_ = nullptr;    // Sum of per-query set sizes.
  obs::Counter* unique_candidates_ = nullptr;  // Size of the union.
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_QUERY_SCHEDULER_H_
