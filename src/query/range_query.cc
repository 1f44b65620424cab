#include "query/range_query.h"

#include <algorithm>

#include "common/check.h"

namespace ipqs {

double QueryResult::TotalProbability() const {
  double total = 0.0;
  for (const auto& [_, p] : objects) {
    total += p;
  }
  return total;
}

double QueryResult::ProbabilityOf(ObjectId object) const {
  for (const auto& [id, p] : objects) {
    if (id == object) {
      return p;
    }
  }
  return 0.0;
}

void QueryResult::Add(ObjectId object, double p) {
  for (auto& [id, prob] : objects) {
    if (id == object) {
      prob += p;
      return;
    }
  }
  objects.emplace_back(object, p);
}

std::vector<ObjectId> QueryResult::TopObjects(int k) const {
  std::vector<std::pair<ObjectId, double>> sorted = objects;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (k >= 0 && static_cast<int>(sorted.size()) > k) {
    sorted.resize(k);
  }
  std::vector<ObjectId> out;
  out.reserve(sorted.size());
  for (const auto& [id, _] : sorted) {
    out.push_back(id);
  }
  return out;
}

CandidateSums::CandidateSums(const std::vector<ObjectId>& candidates)
    : candidates_(candidates), slots_(candidates.size()) {
  touched_.reserve(candidates.size());
}

bool CandidateSums::Add(ObjectId object, double p) {
  // A branch-free lower_bound: table entries hit candidates in no
  // predictable order, so a branching search mispredicts at every level.
  size_t n = candidates_.size();
  if (n == 0) {
    return false;
  }
  const ObjectId* base = candidates_.data();
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half - 1] < object ? base + half : base;
    n -= half;
  }
  if (*base != object) {
    return false;
  }
  const auto index = static_cast<uint32_t>(base - candidates_.data());
  Slot& slot = slots_[index];
  if (slot.touched) {
    slot.sum += p;
  } else {
    // A first touch stores p as-is, like QueryResult::Add's emplace_back.
    slot.sum = p;
    slot.touched = true;
    touched_.push_back(index);
  }
  return true;
}

std::vector<std::pair<ObjectId, double>> CandidateSums::Objects() const {
  std::vector<std::pair<ObjectId, double>> out;
  out.reserve(touched_.size());
  for (uint32_t i : touched_) {
    out.emplace_back(candidates_[i], slots_[i].sum);
  }
  return out;
}

RangeQueryEvaluator::RangeQueryEvaluator(const FloorPlan* plan,
                                         const AnchorPointIndex* anchors)
    : plan_(plan), anchors_(anchors) {
  IPQS_CHECK(plan != nullptr);
  IPQS_CHECK(anchors != nullptr);
  room_anchor_bounds_.reserve(plan_->rooms().size());
  for (const Room& r : plan_->rooms()) {
    std::optional<Rect> bounds;
    for (AnchorId a : anchors_->InRoom(r.id)) {
      const Point& p = anchors_->anchor(a).pos;
      if (!bounds.has_value()) {
        bounds = Rect(p.x, p.y, p.x, p.y);
      } else {
        bounds->min_x = std::min(bounds->min_x, p.x);
        bounds->min_y = std::min(bounds->min_y, p.y);
        bounds->max_x = std::max(bounds->max_x, p.x);
        bounds->max_y = std::max(bounds->max_y, p.y);
      }
    }
    room_anchor_bounds_.push_back(bounds);
  }
}

std::vector<Rect> RangeQueryEvaluator::Footprint(const Rect& window) const {
  std::vector<Rect> footprint = {window};
  for (const Hallway& h : plan_->hallways()) {
    const Rect bounds = h.Bounds();
    if (!bounds.Intersects(window)) {
      continue;
    }
    const Rect clip = bounds.Intersection(window);
    footprint.push_back(h.IsHorizontal() ? Rect(clip.min_x, bounds.min_y,
                                                clip.max_x, bounds.max_y)
                                         : Rect(bounds.min_x, clip.min_y,
                                                bounds.max_x, clip.max_y));
  }
  for (size_t i = 0; i < plan_->rooms().size(); ++i) {
    if (room_anchor_bounds_[i].has_value() &&
        plan_->rooms()[i].bounds.Intersects(window)) {
      footprint.push_back(*room_anchor_bounds_[i]);
    }
  }
  return footprint;
}

QueryResult RangeQueryEvaluator::Evaluate(const AnchorObjectTable& table,
                                          const Rect& window) const {
  return Evaluate(table, window, nullptr);
}

QueryResult RangeQueryEvaluator::Evaluate(
    const AnchorObjectTable& table, const Rect& window,
    const std::vector<ObjectId>* restrict_to) const {
  std::vector<ObjectId> all;
  if (restrict_to == nullptr) {
    all = table.Objects();
    restrict_to = &all;
  }
  CandidateSums sums(*restrict_to);

  // Hallway part: anchors inside the window's along-hallway extent,
  // compensated by the covered fraction of the hallway width.
  for (const Hallway& h : plan_->hallways()) {
    const Rect bounds = h.Bounds();
    if (!bounds.Intersects(window)) {
      continue;
    }
    const Rect clip = bounds.Intersection(window);
    const double ratio = h.IsHorizontal() ? clip.Height() / h.width
                                          : clip.Width() / h.width;
    if (ratio <= 0.0) {
      continue;
    }
    // Select hallway anchors within the along-axis extent of the clip,
    // across the full width (anchors sit on the centerline).
    const Rect along = h.IsHorizontal()
                           ? Rect(clip.min_x, bounds.min_y, clip.max_x,
                                  bounds.max_y)
                           : Rect(bounds.min_x, clip.min_y, bounds.max_x,
                                  clip.max_y);
    for (AnchorId a : anchors_->InRect(along)) {
      const AnchorPoint& ap = anchors_->anchor(a);
      if (ap.hallway != h.id) {
        continue;
      }
      for (const auto& [object, p] : table.AtAnchor(a)) {
        sums.Add(object, p * ratio);
      }
    }
  }

  // Room part: all anchors of the room, compensated by the covered
  // fraction of the room's area.
  for (const Room& r : plan_->rooms()) {
    if (!r.bounds.Intersects(window)) {
      continue;
    }
    const double overlap = r.bounds.Intersection(window).Area();
    const double ratio = overlap / r.Area();
    if (ratio <= 0.0) {
      continue;
    }
    for (AnchorId a : anchors_->InRoom(r.id)) {
      for (const auto& [object, p] : table.AtAnchor(a)) {
        sums.Add(object, p * ratio);
      }
    }
  }
  QueryResult result;
  result.objects = sums.Objects();
  return result;
}

}  // namespace ipqs
