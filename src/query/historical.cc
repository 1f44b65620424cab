#include "query/historical.h"

#include <utility>

#include "common/check.h"

namespace ipqs {

namespace {

EngineConfig ReplayConfig(EngineConfig config) {
  config.use_cache = false;
  config.health = nullptr;
  return config;
}

}  // namespace

HistoricalEngine::HistoricalEngine(const WalkingGraph* graph,
                                   const FloorPlan* plan,
                                   const AnchorPointIndex* anchors,
                                   const AnchorGraph* anchor_graph,
                                   const Deployment* deployment,
                                   const DeploymentGraph* deployment_graph,
                                   const HistoryStore* store,
                                   const EngineConfig& config)
    : store_(store),
      engine_(graph, plan, anchors, anchor_graph, deployment,
              deployment_graph, &collector_, ReplayConfig(config)) {
  IPQS_CHECK(store != nullptr);
}

void HistoricalEngine::RestoreTo(int64_t time) {
  if (restored_time_ == time) {
    return;
  }
  DataCollector::PersistedState state;
  for (ObjectId object : store_->KnownObjects()) {
    if (auto history = store_->SnapshotAt(object, time)) {
      state.histories.emplace_back(object, std::move(*history));
    }
  }
  collector_.RestoreState(std::move(state));
  restored_time_ = time;
}

const AnchorDistribution* HistoricalEngine::InferObjectAt(ObjectId object,
                                                          int64_t time) {
  RestoreTo(time);
  return engine_.InferObject(object, time);
}

QueryResult HistoricalEngine::EvaluateRangeAt(const Rect& window,
                                              int64_t time) {
  RestoreTo(time);
  return engine_.EvaluateRange(window, time);
}

KnnResult HistoricalEngine::EvaluateKnnAt(const Point& query, int k,
                                          int64_t time) {
  RestoreTo(time);
  return engine_.EvaluateKnn(query, k, time);
}

}  // namespace ipqs
