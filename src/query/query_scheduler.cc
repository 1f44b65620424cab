#include "query/query_scheduler.h"

#include <string>

#include "common/check.h"

namespace ipqs {

QueryScheduler::QueryScheduler(QueryEngine* engine) : engine_(engine) {
  IPQS_CHECK(engine != nullptr);
  obs::MetricsRegistry* m = engine_->registry();
  const std::string& p = engine_->config().metrics_prefix;
  batches_ = m->GetCounter(p + ".qps.batches");
  queries_ = m->GetCounter(p + ".qps.queries");
  duplicate_queries_ = m->GetCounter(p + ".qps.duplicate_queries");
  candidate_slots_ = m->GetCounter(p + ".qps.candidate_slots");
  unique_candidates_ = m->GetCounter(p + ".qps.unique_candidates");
  batch_size_ = m->GetHistogram(p + ".qps.batch_size");
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now) {
  return EvaluateBatch(batch, now, engine_->config().deadline_ms);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms) {
  return EvaluateBatch(batch, now, deadline_ms, nullptr);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
    std::vector<obs::QueryExplain>* explains) {
  return EvaluateBatch(batch, now, deadline_ms, explains, nullptr);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
    std::vector<obs::QueryExplain>* explains,
    std::vector<BatchSlotDetail>* details) {
  std::vector<BatchAnswer> answers(batch.size());
  if (explains != nullptr) {
    explains->assign(batch.size(), obs::QueryExplain{});
  }
  if (details != nullptr) {
    details->assign(batch.size(), BatchSlotDetail{});
  }
  if (batch.empty()) {
    return answers;
  }
  const int64_t size = static_cast<int64_t>(batch.size());
  batches_->Increment();
  queries_->Increment(size);
  batch_size_->Observe(size);
  const QueryEngine::ServeCounts counts = engine_->Serve(
      batch, now, deadline_ms, answers,
      explains != nullptr ? std::span<obs::QueryExplain>(*explains)
                          : std::span<obs::QueryExplain>(),
      details != nullptr ? std::span<BatchSlotDetail>(*details)
                         : std::span<BatchSlotDetail>());
  duplicate_queries_->Increment(counts.duplicate_queries);
  candidate_slots_->Increment(counts.candidate_slots);
  unique_candidates_->Increment(counts.unique_candidates);
  if (explains != nullptr) {
    for (obs::QueryExplain& e : *explains) {
      e.batched = true;
      e.batch_size = size;
    }
  }
  return answers;
}

}  // namespace ipqs
