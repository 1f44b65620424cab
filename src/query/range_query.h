#ifndef IPQS_QUERY_RANGE_QUERY_H_
#define IPQS_QUERY_RANGE_QUERY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "filter/anchor_distribution.h"
#include "floorplan/floor_plan.h"
#include "graph/anchor_points.h"
#include "query/quality.h"
#include "rfid/reader.h"

namespace ipqs {

// Probabilistic result of a spatial query: each candidate object with its
// probability of satisfying the query.
struct QueryResult {
  std::vector<std::pair<ObjectId, double>> objects;
  // Fidelity the answer was computed at (see quality.h); anything other
  // than kFull means the engine degraded to meet a deadline.
  QualityLevel quality = QualityLevel::kFull;
  // True when reader health monitoring (src/health/) flagged a degraded
  // reader whose zone or detections touch this answer: coverage over part
  // of the queried space was impaired, so probabilities may be stale.
  bool coverage_degraded = false;

  double TotalProbability() const;
  double ProbabilityOf(ObjectId object) const;
  // Adds `p` to `object`'s probability (Algorithm 3's resultSet addition).
  void Add(ObjectId object, double p);
  // Objects sorted by descending probability (ties: ascending id), trimmed
  // to at most `k` entries; k < 0 keeps everything.
  std::vector<ObjectId> TopObjects(int k = -1) const;
};

// Algorithm 3/4's resultSet for a query restricted to a sorted, unique
// candidate list: one slot per candidate, found with one lower_bound per
// added entry. Objects come out in first-touch order and every slot sums
// its additions in the order they arrive — exactly the vector repeated
// QueryResult::Add calls would build, without Add's linear scan.
class CandidateSums {
 public:
  explicit CandidateSums(const std::vector<ObjectId>& candidates);

  // Adds `p` to `object`'s slot and returns true; returns false, changing
  // nothing, when `object` is not a candidate.
  bool Add(ObjectId object, double p);

  // The touched candidates with their sums, in first-touch order.
  std::vector<std::pair<ObjectId, double>> Objects() const;

 private:
  struct Slot {
    double sum = 0.0;
    bool touched = false;
  };
  const std::vector<ObjectId>& candidates_;
  std::vector<Slot> slots_;        // Indexed like candidates_.
  std::vector<uint32_t> touched_;  // Slot indices in first-touch order.
};

// Indoor range query evaluation (Algorithm 3). Anchor points are the 1-D
// projection of 2-D space, so the lost dimension is compensated per
// container:
//  * hallway: anchors within the window's along-hallway extent count with
//    ratio (overlapped hallway width) / (full hallway width);
//  * room: all anchors of the room count with ratio
//    area(window ∩ room) / area(room).
class RangeQueryEvaluator {
 public:
  RangeQueryEvaluator(const FloorPlan* plan, const AnchorPointIndex* anchors);

  // Probability each object lies inside `window`, given the location
  // distributions in `table`. With `restrict_to` non-null (a SORTED, unique
  // object id list), only those objects contribute: the table may hold
  // distributions memoized for other queries at the same timestamp, and a
  // query's answer must be a function of its own candidate set alone. A
  // null `restrict_to` restricts to table.Objects().
  QueryResult Evaluate(const AnchorObjectTable& table,
                       const Rect& window) const;
  QueryResult Evaluate(const AnchorObjectTable& table, const Rect& window,
                       const std::vector<ObjectId>* restrict_to) const;

  // Where `window` draws probability from under the rules above: the
  // window itself, the full-width strip of every hallway it overlaps
  // across its along-hallway extent, and, for every room it overlaps, the
  // bounding box of that room's anchor points. Every anchor the window
  // credits lies in one of these rectangles, so range pruning tests
  // uncertain regions against the footprint rather than the bare window (a
  // disc that misses the window can still reach a room the window clips).
  std::vector<Rect> Footprint(const Rect& window) const;

 private:
  const FloorPlan* plan_;
  const AnchorPointIndex* anchors_;
  // Per room (indexed like plan_->rooms()): bounding box of its anchor
  // points, or nullopt for a room without anchors.
  std::vector<std::optional<Rect>> room_anchor_bounds_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_RANGE_QUERY_H_
