#ifndef IPQS_QUERY_UNCERTAIN_REGION_H_
#define IPQS_QUERY_UNCERTAIN_REGION_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "graph/shortest_path.h"
#include "rfid/data_collector.h"
#include "rfid/deployment.h"

namespace ipqs {

// Uncertain region of an object (Section 4.3): a disc centered at its last
// detecting reader with radius
//   r = u_max * (t_now - t_last) + d.range,
// guaranteed to contain the object's true position (under the max-speed
// assumption). The query-aware optimization module prunes objects whose
// uncertain region cannot intersect any registered query.
struct UncertainRegion {
  ObjectId object = kInvalidId;
  ReaderId reader = kInvalidId;
  Point center;
  double radius = 0.0;

  // Euclidean window test for range-query pruning.
  bool Overlaps(const Rect& window) const {
    return window.DistanceTo(center) <= radius;
  }
};

UncertainRegion ComputeUncertainRegion(const Deployment& deployment,
                                       ObjectId object,
                                       const AggregatedEntry& last_reading,
                                       int64_t now, double max_speed);

// Min/max shortest-network-distance interval [s_i, l_i] from a query point
// to an uncertain region (Equation 6), computed through one cached
// Dijkstra from the query point:
//   s_i = max(0, d_net(q, reader) - radius),  l_i = d_net(q, reader) + radius.
struct DistanceInterval {
  double min_dist = 0.0;  // s_i
  double max_dist = 0.0;  // l_i
};

DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_query,
                                         const Deployment& deployment,
                                         const UncertainRegion& region);

// Per-reader network-distance bounds from one query source point. This is
// the only shape of distance information kNN pruning actually consumes —
// every uncertain region is centered on a reader — so the engine hands this
// around instead of a whole one-to-all table. Exact backends (a private
// Dijkstra, a DistanceIndex table, the oracle's pinned reader matrix) fill
// lower == upper; the landmark-bound fallback fills a genuine interval.
// Entries may be +inf when a reader is unreachable from the source; all
// consumers must treat +inf as "cannot bound from below / prove reachable",
// never as an orderable distance.
struct SourceDistances {
  struct Bound {
    double lower = 0.0;
    double upper = 0.0;
  };
  // Indexed by ReaderId; empty means "no distances computed".
  std::vector<Bound> to_reader;
  // Bound on the network distance between the true query point and the
  // source the bounds were computed from (0 when sourced exactly).
  double slack = 0.0;

  bool empty() const { return to_reader.empty(); }

  // Evaluates `table.ToLocation` once per reader. Byte-identical to what
  // consumers previously computed from the shared table, at one lookup per
  // reader instead of one per (object, evaluation).
  static SourceDistances FromTable(const OneToAllDistances& table,
                                   double source_slack,
                                   const Deployment& deployment);
};

// Interval through per-reader bounds: widened by the region radius plus the
// source slack on both sides, using the lower bound on the min side and the
// upper bound on the max side, so it always contains the true [s_i, l_i].
DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region);

// Interval computed through a distance table sourced NEAR the query point
// rather than at it (e.g. a shared per-anchor table from a DistanceIndex).
// `source_slack` must bound the network distance between the query point
// and the table's source; the interval is widened by it on both sides, so
// it still contains the true [s_i, l_i] and pruning stays sound. With
// slack 0 this is exactly the plain interval.
DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_source,
                                         double source_slack,
                                         const Deployment& deployment,
                                         const UncertainRegion& region);

// Range-query candidate filter: objects whose uncertain region overlaps at
// least one of the rectangles. The engine passes a window's footprint
// (RangeQueryEvaluator::Footprint), not the bare window, because the range
// evaluator credits whole rooms and hallway widths. Objects without any
// reading are never candidates (they have never been inside the
// instrumented space).
std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed);

// kNN candidate filter (distance-based pruning of [30]): drops every object
// whose s_i exceeds f = the k-th smallest l_i.
std::vector<ObjectId> FilterKnnCandidates(const WalkingGraph& graph,
                                          const DataCollector& collector,
                                          const Deployment& deployment,
                                          const GraphLocation& query, int k,
                                          int64_t now, double max_speed);

// Same filter evaluated through a precomputed distance table (typically a
// shared DistanceIndex entry sourced at the anchor point the query
// canonicalizes to). `source_slack` bounds the network distance between
// the query point and the table source; intervals are widened by it, so
// the candidate set is a superset of the exact one — never unsound.
std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const OneToAllDistances& from_source,
                                          double source_slack, int k,
                                          int64_t now, double max_speed);

// Same filter over per-reader bounds. With unreachable readers in play the
// cutoff f (k-th smallest l_i) can be +inf, in which case nothing is pruned
// — a sound superset; the evaluation stage, which expands over the actual
// graph, is what rules unreachable objects out.
std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed);

}  // namespace ipqs

#endif  // IPQS_QUERY_UNCERTAIN_REGION_H_
