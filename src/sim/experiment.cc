#include "sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/check.h"
#include "query/query_scheduler.h"

namespace ipqs {

Rect Experiment::RandomWindow(const FloorPlan& plan, double area_fraction,
                              Rng& rng) {
  IPQS_CHECK_GT(area_fraction, 0.0);
  const double area = plan.TotalArea() * area_fraction;
  const double aspect = rng.Uniform(0.5, 2.0);
  const double w = std::sqrt(area * aspect);
  const double h = area / w;
  const Rect box = plan.BoundingBox();
  const double cx = rng.Uniform(box.min_x, box.max_x);
  const double cy = rng.Uniform(box.min_y, box.max_y);
  return Rect::FromCenter({cx, cy}, w, h);
}

Point Experiment::RandomIndoorPoint(const AnchorPointIndex& anchors,
                                    Rng& rng) {
  IPQS_CHECK_GT(anchors.num_anchors(), 0);
  const AnchorId a =
      static_cast<AnchorId>(rng.UniformIndex(anchors.num_anchors()));
  return anchors.anchor(a).pos;
}

StatusOr<ExperimentResult> Experiment::Run() {
  if (config_.eval_knn && config_.k < 1) {
    return Status::InvalidArgument("k must be positive");
  }
  if (config_.eval_range && !(config_.window_area_fraction > 0.0)) {
    return Status::InvalidArgument("window area fraction must be positive");
  }
  std::unique_ptr<Simulation> sim;
  IPQS_ASSIGN_OR_RETURN(sim, Simulation::Create(config_.sim));

  sim->Run(config_.warmup_seconds);

  // Fixed panel of kNN query points, reused at every timestamp.
  std::vector<Point> knn_points;
  for (int i = 0; i < config_.knn_query_points; ++i) {
    knn_points.push_back(RandomIndoorPoint(sim->anchors(), sim->query_rng()));
  }

  MeanAccumulator kl_pf;
  MeanAccumulator kl_sm;
  MeanAccumulator hit_pf;
  MeanAccumulator hit_sm;
  MeanAccumulator top1;
  MeanAccumulator top2;

  std::optional<QueryScheduler> pf_scheduler;
  std::optional<QueryScheduler> sm_scheduler;
  if (config_.batch_queries) {
    pf_scheduler.emplace(&sim->pf_engine());
    sm_scheduler.emplace(&sim->sm_engine());
  }

  std::vector<obs::QueryExplain> explains;
  const int64_t pf_deadline_ms = sim->pf_engine().config().deadline_ms;

  for (int ts = 0; ts < config_.num_timestamps; ++ts) {
    // Provenance is collected for the final timestamp only: one
    // steady-state portrait of the serving path, not num_timestamps of
    // them.
    const bool explain_ts =
        config_.collect_explain && ts == config_.num_timestamps - 1;
    sim->Run(config_.seconds_between_timestamps);
    const int64_t now = sim->now();
    const std::vector<TrueObjectState>& states = sim->true_states();

    if (config_.batch_queries) {
      // Batched serving: identical query draws, identical answers (the
      // scheduler is pinned byte-identical to serial evaluation), but one
      // scheduler pass per engine instead of one engine call per query.
      std::vector<BatchQuery> batch;
      std::vector<std::vector<ObjectId>> truths;
      if (config_.eval_range) {
        for (int i = 0; i < config_.range_queries_per_timestamp; ++i) {
          const Rect window = RandomWindow(sim->plan(),
                                           config_.window_area_fraction,
                                           sim->query_rng());
          std::vector<ObjectId> truth =
              GroundTruth::RangeResult(states, window);
          if (truth.empty()) {
            continue;  // KL undefined; the paper averages populated windows.
          }
          batch.push_back(BatchQuery::Range(window));
          truths.push_back(std::move(truth));
        }
      }
      const size_t num_range = batch.size();
      if (config_.eval_knn) {
        for (const Point& q : knn_points) {
          const GraphLocation q_loc =
              sim->graph().NearestLocation(q, /*prefer_hallways=*/true);
          std::vector<ObjectId> truth =
              sim->ground_truth().KnnResult(states, q_loc, config_.k);
          if (truth.empty()) {
            continue;
          }
          batch.push_back(BatchQuery::Knn(q, config_.k));
          truths.push_back(std::move(truth));
        }
      }
      const std::vector<BatchAnswer> pf =
          explain_ts ? pf_scheduler->EvaluateBatch(batch, now, pf_deadline_ms,
                                                   &explains)
                     : pf_scheduler->EvaluateBatch(batch, now);
      const std::vector<BatchAnswer> sm = sm_scheduler->EvaluateBatch(batch, now);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (i < num_range) {
          kl_pf.AddOptional(RangeKlDivergence(truths[i], pf[i].range));
          kl_sm.AddOptional(RangeKlDivergence(truths[i], sm[i].range));
        } else {
          hit_pf.Add(KnnHitRate(pf[i].knn.result, truths[i], config_.k,
                                /*top_k_only=*/false));
          hit_sm.Add(KnnHitRate(sm[i].knn.result, truths[i], config_.k,
                                /*top_k_only=*/true));
        }
      }
    }

    if (!config_.batch_queries && config_.eval_range) {
      for (int i = 0; i < config_.range_queries_per_timestamp; ++i) {
        const Rect window = RandomWindow(sim->plan(),
                                         config_.window_area_fraction,
                                         sim->query_rng());
        const std::vector<ObjectId> truth =
            GroundTruth::RangeResult(states, window);
        if (truth.empty()) {
          continue;  // KL undefined; the paper averages populated windows.
        }
        QueryResult pf;
        if (explain_ts) {
          obs::QueryExplain record;
          pf = sim->pf_engine().EvaluateRange(window, now, pf_deadline_ms,
                                              &record);
          explains.push_back(std::move(record));
        } else {
          pf = sim->pf_engine().EvaluateRange(window, now);
        }
        const QueryResult sm = sim->sm_engine().EvaluateRange(window, now);
        kl_pf.AddOptional(RangeKlDivergence(truth, pf));
        kl_sm.AddOptional(RangeKlDivergence(truth, sm));
      }
    }

    if (!config_.batch_queries && config_.eval_knn) {
      for (const Point& q : knn_points) {
        const GraphLocation q_loc =
            sim->graph().NearestLocation(q, /*prefer_hallways=*/true);
        const std::vector<ObjectId> truth =
            sim->ground_truth().KnnResult(states, q_loc, config_.k);
        if (truth.empty()) {
          continue;
        }
        KnnResult pf;
        if (explain_ts) {
          obs::QueryExplain record;
          pf = sim->pf_engine().EvaluateKnn(q, config_.k, now, pf_deadline_ms,
                                            &record);
          explains.push_back(std::move(record));
        } else {
          pf = sim->pf_engine().EvaluateKnn(q, config_.k, now);
        }
        const KnnResult sm = sim->sm_engine().EvaluateKnn(q, config_.k, now);
        // PF: score the full Algorithm 4 result set. SM: only its maximum
        // probability result set (top-k), per the paper's methodology.
        hit_pf.Add(KnnHitRate(pf.result, truth, config_.k,
                              /*top_k_only=*/false));
        hit_sm.Add(KnnHitRate(sm.result, truth, config_.k,
                              /*top_k_only=*/true));
      }
    }

    if (config_.eval_topk) {
      for (const TrueObjectState& s : states) {
        const AnchorDistribution* dist =
            sim->pf_engine().InferObject(s.id, now);
        if (dist == nullptr || dist->empty()) {
          continue;  // Never detected yet.
        }
        top1.Add(TopKSuccess(sim->anchors(), *dist, s.pos, 1,
                             config_.topk_tolerance)
                     ? 1.0
                     : 0.0);
        top2.Add(TopKSuccess(sim->anchors(), *dist, s.pos, 2,
                             config_.topk_tolerance)
                     ? 1.0
                     : 0.0);
      }
    }
  }

  ExperimentResult result;
  result.kl_pf = kl_pf.Mean();
  result.kl_sm = kl_sm.Mean();
  result.range_windows_scored = kl_pf.count();
  result.hit_pf = hit_pf.Mean();
  result.hit_sm = hit_sm.Mean();
  result.top1 = top1.Mean();
  result.top2 = top2.Mean();
  result.pf_stats = sim->pf_engine().stats();
  result.sm_stats = sim->sm_engine().stats();
  result.cache_stats = sim->pf_engine().cache_stats();
  result.pf_degrade = sim->pf_engine().degrade_stats();
  result.fault_stats = sim->fault_stats();
  result.ingest_stats = sim->collector().ingest_stats();
  if (sim->subscriptions() != nullptr) {
    result.sub_stats = sim->subscriptions()->stats();
  }
  result.health_stats = sim->health_stats();
  result.explains = std::move(explains);
  return result;
}

}  // namespace ipqs
