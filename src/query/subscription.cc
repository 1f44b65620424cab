#include "query/subscription.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/check.h"
#include "query/uncertain_region.h"

namespace ipqs {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Distance from `p` to the nearest rectangle of a range footprint: an
// uncertain region centered at `p` is a pruning candidate iff its radius
// reaches this (the FilterRangeCandidates test over the same rectangles).
double FootprintDistance(const std::vector<Rect>& footprint, const Point& p) {
  double best = kInf;
  for (const Rect& r : footprint) {
    best = std::min(best, r.DistanceTo(p));
  }
  return best;
}
}  // namespace

SubscriptionManager::SubscriptionManager(
    QueryEngine* engine, const SubscriptionManagerConfig& config)
    : engine_(engine), config_(config), scheduler_(engine) {
  IPQS_CHECK(engine != nullptr);
  IPQS_CHECK_GE(config_.margin_seconds, 0.0);
  obs::MetricsRegistry* m = config_.metrics;
  if (m == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    m = own_registry_.get();
  }
  const std::string& p = config_.metrics_prefix;
  registered_ = m->GetGauge(p + ".registered");
  ticks_ = m->GetCounter(p + ".ticks");
  dirty_ = m->GetCounter(p + ".dirty");
  evals_skipped_ = m->GetCounter(p + ".evals_skipped");
  changes_seen_ = m->GetCounter(p + ".changes_seen");
  delta_entries_ = m->GetHistogram(p + ".delta_entries");
  // Future collector changes are drained tick by tick; everything already
  // ingested is covered by the first evaluation (every new subscription
  // starts dirty).
  if (engine_->collector_->change_log_enabled()) {
    change_cursor_ = engine_->collector_->change_log_end();
    cursor_primed_ = true;
  }
  // Same contract for health transitions: only future transitions matter
  // (the first evaluation of every subscription sees the current view).
  if (engine_->config_.health != nullptr) {
    health_cursor_ = engine_->config_.health->transition_end();
    health_primed_ = true;
  }
}

SubscriptionId SubscriptionManager::Add(BatchQuery query, double threshold) {
  const SubscriptionId id = next_id_++;
  Sub sub;
  sub.id = id;
  sub.query = std::move(query);
  sub.threshold = threshold;
  if (sub.query.kind == BatchQuery::Kind::kRange) {
    sub.footprint = engine_->range_eval_.Footprint(sub.query.window);
  }
  subs_.emplace(id, std::move(sub));
  registered_->Set(static_cast<int64_t>(subs_.size()));
  needs_tick_ = true;
  return id;
}

SubscriptionId SubscriptionManager::AddRange(const Rect& window) {
  return AddRange(window, config_.default_membership_threshold);
}

SubscriptionId SubscriptionManager::AddRange(const Rect& window,
                                             double membership_threshold) {
  IPQS_CHECK(membership_threshold > 0.0 && membership_threshold <= 1.0);
  return Add(BatchQuery::Range(window), membership_threshold);
}

SubscriptionId SubscriptionManager::AddKnn(const Point& point, int k) {
  IPQS_CHECK_GT(k, 0);
  return Add(BatchQuery::Knn(point, k), 0.0);
}

void SubscriptionManager::Remove(SubscriptionId id) {
  IPQS_CHECK_EQ(subs_.erase(id), 1u);
  registered_->Set(static_cast<int64_t>(subs_.size()));
}

bool SubscriptionManager::PinsHold(const Sub& sub, int64_t now) const {
  for (const CandidatePin& pin : sub.pins) {
    const DataCollector::ObjectHistory* h =
        engine_->collector_->History(pin.object);
    if (h == nullptr || h->entries.empty() ||
        h->current_device != pin.device || h->LastTime() != pin.last_reading) {
      return false;
    }
    if (pin.probe) {
      const auto probe = engine_->cache_.Probe(pin.object, *h, now);
      if (!probe.has_value() || !probe->resumable ||
          probe->state_time != pin.state_time) {
        return false;
      }
    }
  }
  return true;
}

bool SubscriptionManager::HealthClean(
    const Sub& sub, const std::vector<ReaderId>& transitioned) const {
  if (transitioned.empty()) {
    return true;
  }
  if (sub.query.kind == BatchQuery::Kind::kKnn) {
    return false;  // No window to scope the transition against.
  }
  const Deployment& deployment = *engine_->deployment_;
  for (ReaderId r : transitioned) {
    const Reader& reader = deployment.reader(r);
    const Rect zone =
        Rect::FromCenter(reader.pos, 2 * reader.range, 2 * reader.range);
    if (zone.Intersects(sub.query.window)) {
      return false;  // Coverage over the window changed.
    }
  }
  for (ObjectId o : sub.candidates) {
    const DataCollector::ObjectHistory* h = engine_->collector_->History(o);
    if (h != nullptr &&
        std::binary_search(transitioned.begin(), transitioned.end(),
                           h->current_device)) {
      return false;  // A candidate's detecting device changed health.
    }
  }
  return true;
}

bool SubscriptionManager::ChangesClean(Sub& sub,
                                       const std::vector<ObjectId>& changed,
                                       int64_t now) {
  const EngineConfig& cfg = engine_->config_;
  const Deployment& deployment = *engine_->deployment_;
  const double u = cfg.max_speed;
  for (ObjectId j : changed) {
    if (std::binary_search(sub.candidates.begin(), sub.candidates.end(), j)) {
      return false;  // A candidate's history moved: the answer can change.
    }
    if (!cfg.use_pruning) {
      // Every known object is a candidate, so a changed non-candidate is a
      // brand-new object the cached answer has never seen.
      return false;
    }
    const DataCollector::ObjectHistory* h = engine_->collector_->History(j);
    if (h == nullptr || h->entries.empty()) {
      return false;
    }
    const AggregatedEntry last = h->entries.back();
    const UncertainRegion ur =
        ComputeUncertainRegion(deployment, j, last, now, u);
    if (sub.query.kind == BatchQuery::Kind::kRange) {
      const double gap = FootprintDistance(sub.footprint, ur.center);
      if (gap <= ur.radius) {
        return false;  // Joined the candidate set.
      }
      // Still outside: predict when its (growing) region could reach the
      // footprint and make sure a future tick re-evaluates by then.
      if (u > 0.0) {
        const Reader& r = deployment.reader(last.reader);
        const double t_touch =
            static_cast<double>(last.time) + (gap - r.range) / u;
        sub.next_expand =
            std::min(sub.next_expand, t_touch - config_.margin_seconds);
      }
    } else {
      if (!std::isfinite(sub.f) || sub.dists.empty()) {
        // Pruning was degenerate at the last evaluation (entries <= k, or
        // no distances read): there is no f-bound to test against.
        return false;
      }
      const Reader& r = deployment.reader(last.reader);
      // An unreachable reader reads +inf: s_now stays inf, which never
      // dips under a finite f_now — correct, the object can never arrive.
      const double d = sub.dists.to_reader[last.reader];
      const double s_now = NetworkDistanceInterval(sub.dists, ur).min_dist;
      // While the subscription is clean, the exact pruning bound at `now`
      // is f + u * (now - last_eval): the k supporting objects are
      // unchanged candidates whose l-bounds all grew by exactly u per
      // second, and no other object undercut them (or it would have been
      // caught by this very test).
      const double f_now =
          sub.f + u * static_cast<double>(now - sub.last_eval);
      if (s_now <= f_now) {
        return false;  // Dipped under the bound: joined the candidates.
      }
      if (u > 0.0) {
        // s_j(t) falls at rate u while f(t) grows at rate u; they cross at
        // t_cross — re-evaluate before then.
        const double t_cross =
            (d - r.range - sub.f +
             u * static_cast<double>(last.time + sub.last_eval)) /
            (2.0 * u);
        sub.next_expand =
            std::min(sub.next_expand, t_cross - config_.margin_seconds);
      }
    }
  }
  return true;
}

void SubscriptionManager::RefreshState(Sub& sub, const BatchAnswer& answer,
                                       const BatchSlotDetail& detail,
                                       int64_t now) {
  const EngineConfig& cfg = engine_->config_;
  const DataCollector& collector = *engine_->collector_;
  const Deployment& deployment = *engine_->deployment_;
  sub.answer = answer;
  sub.last_eval = now;
  sub.candidates = detail.candidates;
  sub.snapped = detail.snapped;
  sub.dists = detail.dists;
  sub.f = kInf;
  sub.pins.clear();

  // Condition 1: every candidate's distribution must be settled (see the
  // class comment) for the cached answer to be time-invariant.
  sub.stable = true;
  for (ObjectId o : sub.candidates) {
    const DataCollector::ObjectHistory* h = collector.History(o);
    if (h == nullptr || h->entries.empty()) {
      sub.stable = false;
      break;
    }
    CandidatePin pin;
    pin.object = o;
    pin.device = h->current_device;
    pin.last_reading = h->LastTime();
    switch (cfg.method) {
      case InferenceMethod::kLastReading:
        // Inference ignores `now` entirely; the history pin suffices.
        break;
      case InferenceMethod::kSymbolicModel:
        // The symbolic posterior decays with `now`: never settled.
        sub.stable = false;
        break;
      case InferenceMethod::kParticleFilter: {
        // Settled once the filter has coasted its full max_coast window
        // past the last reading AND the cache holds that exact endpoint:
        // a resume at any later `now` is then a zero-advance no-op.
        const int64_t settle = h->LastTime() + cfg.filter.max_coast_seconds;
        if (!cfg.use_cache || settle > now) {
          sub.stable = false;
          break;
        }
        const auto probe = engine_->cache_.Probe(o, *h, now);
        if (!probe.has_value() || !probe->resumable ||
            probe->state_time != settle) {
          sub.stable = false;
          break;
        }
        pin.state_time = settle;
        pin.probe = true;
        break;
      }
    }
    if (!sub.stable) {
      break;
    }
    sub.pins.push_back(std::move(pin));
  }
  if (!sub.stable) {
    sub.pins.clear();
    sub.next_expand = -kInf;
    sub.dists = SourceDistances{};
    return;
  }

  // Condition 3: the earliest time any non-candidate's uncertain region
  // could reach the query (candidates themselves never drop out while
  // clean: their regions only grow, and the kNN bound grows in lockstep).
  double next = kInf;
  const double u = cfg.max_speed;
  if (cfg.use_pruning && u > 0.0) {
    const std::span<const KnownObject> view = engine_->ObjectView();
    // Both the view and the candidates ascend by object: one merge walk
    // finds the non-candidates.
    auto is_candidate = [&sub, c = sub.candidates.begin()](
                                  ObjectId o) mutable {
      while (c != sub.candidates.end() && *c < o) {
        ++c;
      }
      return c != sub.candidates.end() && *c == o;
    };
    if (sub.query.kind == BatchQuery::Kind::kRange) {
      // Readers are pinned: memoize the footprint distance per reader.
      std::vector<double> footprint_dist(
          static_cast<size_t>(deployment.num_readers()), -1.0);
      for (const KnownObject& o : view) {
        if (is_candidate(o.object)) {
          continue;
        }
        const Reader& r = deployment.reader(o.last.reader);
        double& gap = footprint_dist[static_cast<size_t>(o.last.reader)];
        if (gap < 0.0) {
          gap = FootprintDistance(sub.footprint, r.pos);
        }
        const double t_touch =
            static_cast<double>(o.last.time) + (gap - r.range) / u;
        next = std::min(next, t_touch);
      }
    } else if (!sub.dists.empty()) {
      // The pruning bound f exactly as FilterKnnCandidates computed it for
      // this evaluation (k-th smallest l over every known object).
      sub.f = KnnPruneBound(
          NetworkDistanceIntervals(view, deployment, sub.dists, now, u),
          sub.query.k);
      if (std::isfinite(sub.f)) {
        for (const KnownObject& o : view) {
          if (is_candidate(o.object)) {
            continue;
          }
          const double d = sub.dists.to_reader[o.last.reader];
          if (!std::isfinite(d)) {
            continue;  // Unreachable reader: s_j stays inf forever.
          }
          const Reader& r = deployment.reader(o.last.reader);
          const double t_cross =
              (d - r.range - sub.f +
               u * static_cast<double>(o.last.time + now)) /
              (2.0 * u);
          next = std::min(next, t_cross);
        }
      }
      // At most k known objects keep f at +inf: every known object was a
      // candidate, and any new object arrives as a change (which dirties).
      // f == +inf (fewer than k finite l's) likewise admits everything as
      // a candidate, and the inf guard keeps inf - inf out of t_cross.
    }
  }
  sub.next_expand =
      std::isfinite(next) ? next - config_.margin_seconds : next;
}

SubscriptionTickResult SubscriptionManager::Tick(int64_t now) {
  return Tick(now, nullptr);
}

SubscriptionTickResult SubscriptionManager::Tick(
    int64_t now, std::vector<obs::QueryExplain>* explains) {
  IPQS_CHECK_GE(now, last_tick_time_);
  SubscriptionTickResult result;
  result.time = now;
  ticks_->Increment();

  // Drain the collector's change log into a sorted-unique changed set.
  const DataCollector& collector = *engine_->collector_;
  bool lost_sync = !cursor_primed_ || !collector.change_log_enabled();
  std::vector<ObjectId> changed;
  if (cursor_primed_ && collector.change_log_enabled()) {
    std::vector<AppliedChange> drained;
    change_cursor_ = collector.ReadChanges(change_cursor_, &drained,
                                           &lost_sync);
    changes_seen_->Increment(static_cast<int64_t>(drained.size()));
    changed.reserve(drained.size());
    for (const AppliedChange& c : drained) {
      changed.push_back(c.object);
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  }

  // Drain the health monitor's transition log the same way; a lost ring
  // sync degrades to dirty-everything, exactly like the change log's.
  std::vector<ReaderId> transitioned;
  if (health_primed_) {
    std::vector<ReaderHealthTransition> drained;
    bool health_lost = false;
    health_cursor_ = engine_->config_.health->ReadTransitions(
        health_cursor_, &drained, &health_lost);
    if (health_lost) {
      lost_sync = true;
    }
    transitioned.reserve(drained.size());
    for (const ReaderHealthTransition& t : drained) {
      transitioned.push_back(t.reader);
    }
    std::sort(transitioned.begin(), transitioned.end());
    transitioned.erase(
        std::unique(transitioned.begin(), transitioned.end()),
        transitioned.end());
  }

  // Classify every subscription (map order: deterministic).
  std::vector<SubscriptionId> dirty_ids;
  std::vector<BatchQuery> batch;
  for (auto& [id, sub] : subs_) {
    bool dirty = !config_.incremental || lost_sync || sub.last_eval < 0;
    if (!dirty) {
      const bool time_ok =
          sub.last_eval == now ||
          (sub.stable && static_cast<double>(now) < sub.next_expand);
      dirty = !time_ok || !HealthClean(sub, transitioned) ||
              !ChangesClean(sub, changed, now) || !PinsHold(sub, now);
    }
    if (dirty) {
      dirty_ids.push_back(id);
      batch.push_back(sub.query);
    }
  }

  // One batch evaluation for every dirty subscription. Deadline 0: a
  // standing query never degrades (a load-dependent quality level would
  // break the answers' time-invariance the clean checks rely on).
  std::vector<BatchAnswer> answers;
  std::vector<BatchSlotDetail> details;
  if (!batch.empty()) {
    answers = scheduler_.EvaluateBatch(batch, now, /*deadline_ms=*/0,
                                       explains, &details);
  } else if (explains != nullptr) {
    explains->clear();
  }

  // Refresh dirty subscriptions and emit every delta in id order.
  size_t next_dirty = 0;
  for (auto& [id, sub] : subs_) {
    SubscriptionUpdate update;
    update.id = id;
    update.kind = sub.query.kind;
    const bool dirty =
        next_dirty < dirty_ids.size() && dirty_ids[next_dirty] == id;
    if (dirty) {
      RefreshState(sub, answers[next_dirty], details[next_dirty], now);
      ++next_dirty;
      update.evaluated = true;
      int64_t delta_size = 0;
      if (sub.query.kind == BatchQuery::Kind::kRange) {
        update.range = DiffRangeResult(sub.answer.range, sub.threshold, now,
                                       &sub.members);
        delta_size = static_cast<int64_t>(update.range.entered.size() +
                                          update.range.left.size());
      } else {
        update.knn =
            DiffKnnResult(sub.answer.knn, sub.query.k, now, &sub.current);
        delta_size = static_cast<int64_t>(update.knn.entered.size() +
                                          update.knn.left.size());
      }
      delta_entries_->Observe(delta_size);
      ++result.evaluated;
    } else {
      // Clean: the cached answer is provably unchanged, so the delta is
      // empty by construction.
      update.evaluated = false;
      update.range.time = now;
      update.knn.time = now;
      update.knn.current = sub.current;
      ++result.skipped;
    }
    result.updates.push_back(std::move(update));
  }
  dirty_->Increment(result.evaluated);
  evals_skipped_->Increment(result.skipped);
  last_tick_time_ = now;
  needs_tick_ = false;
  return result;
}

void SubscriptionManager::EnsureTick(int64_t now) {
  if (now > last_tick_time_ || (needs_tick_ && now >= last_tick_time_)) {
    Tick(now);
  }
}

const BatchAnswer& SubscriptionManager::Answer(SubscriptionId id) const {
  const auto it = subs_.find(id);
  IPQS_CHECK(it != subs_.end());
  IPQS_CHECK_GE(it->second.last_eval, 0);
  return it->second.answer;
}

const std::map<ObjectId, double>& SubscriptionManager::RangeMembers(
    SubscriptionId id) const {
  const auto it = subs_.find(id);
  IPQS_CHECK(it != subs_.end());
  IPQS_CHECK(it->second.query.kind == BatchQuery::Kind::kRange);
  return it->second.members;
}

const std::vector<ObjectId>& SubscriptionManager::KnnCurrent(
    SubscriptionId id) const {
  const auto it = subs_.find(id);
  IPQS_CHECK(it != subs_.end());
  IPQS_CHECK(it->second.query.kind == BatchQuery::Kind::kKnn);
  return it->second.current;
}

SubscriptionStats SubscriptionManager::stats() const {
  SubscriptionStats s;
  s.ticks = ticks_->Value();
  s.evaluated = dirty_->Value();
  s.skipped = evals_skipped_->Value();
  s.changes_seen = changes_seen_->Value();
  return s;
}

}  // namespace ipqs
