#ifndef IPQS_QUERY_HISTORICAL_H_
#define IPQS_QUERY_HISTORICAL_H_

#include <cstdint>
#include <optional>

#include "query/knn_query.h"
#include "query/query_engine.h"
#include "query/range_query.h"
#include "rfid/data_collector.h"
#include "rfid/history_store.h"

namespace ipqs {

// Historical snapshot queries ("who was inside this zone at 10:15?") over
// a HistoryStore. For any past instant t the engine restores a collector
// to the store's snapshot at t — per object, the two-device reading window
// the live system held then — and answers through an ordinary QueryEngine
// over it, so historical answers run the live pipeline (pruning, per-query
// candidate restriction, one (seed, object, t) stream per inference) and
// are a pure function of (seed, store, t, query): the order queries are
// asked in never changes an answer.
//
// The engine is configured from `config` with two exceptions. The particle
// cache is off (each query time is its own replay), and no health monitor
// is consulted (its view describes the present, not t). A restored
// collector carries no per-second reader liveness either, so under
// filter.measurement.use_negative_information historical replays treat
// all silence as uninformative, where a live engine trusts the silence of
// readers it saw alive.
class HistoricalEngine {
 public:
  HistoricalEngine(const WalkingGraph* graph, const FloorPlan* plan,
                   const AnchorPointIndex* anchors,
                   const AnchorGraph* anchor_graph,
                   const Deployment* deployment,
                   const DeploymentGraph* deployment_graph,
                   const HistoryStore* store, const EngineConfig& config);

  QueryResult EvaluateRangeAt(const Rect& window, int64_t time);
  KnnResult EvaluateKnnAt(const Point& query, int k, int64_t time);

  // Location distribution of `object` as of `time`; nullptr when the
  // object had not been detected by then.
  const AnchorDistribution* InferObjectAt(ObjectId object, int64_t time);

  EngineStats stats() const { return engine_.stats(); }

  // The APtoObjHT for the last queried time (for event predicates).
  const AnchorObjectTable& table() const { return engine_.table(); }

 private:
  // Restores collector_ to the store's snapshot at `time`, unless the last
  // query already did.
  void RestoreTo(int64_t time);

  const HistoryStore* store_;
  DataCollector collector_;
  std::optional<int64_t> restored_time_;
  QueryEngine engine_;  // Reads collector_.
};

}  // namespace ipqs

#endif  // IPQS_QUERY_HISTORICAL_H_
