#ifndef IPQS_QUERY_UNCERTAIN_REGION_H_
#define IPQS_QUERY_UNCERTAIN_REGION_H_

#include <cstdint>
#include <span>
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

// The radius r above, for a reader of activation range `range` that last
// saw the object at `last_time`.
inline double UncertainRadius(double range, int64_t last_time, int64_t now,
                              double max_speed) {
  return max_speed * static_cast<double>(now - last_time) + range;
}

UncertainRegion ComputeUncertainRegion(const Deployment& deployment,
                                       ObjectId object,
                                       const AggregatedEntry& last_reading,
                                       int64_t now, double max_speed);

// A detected object and its newest aggregated entry: everything pruning
// reads from the collector, since an uncertain region is centred on the
// last detecting reader.
struct KnownObject {
  ObjectId object = kInvalidId;
  AggregatedEntry last;
};

// Every object of `collector` with at least one entry, ascending by object.
// Pruning over this view emits ascending, unique candidate sets.
std::vector<KnownObject> KnownObjectsOf(const DataCollector& collector);

// Min/max shortest-network-distance interval [s_i, l_i] from a query point
// to an uncertain region (Equation 6):
//   s_i = max(0, d_net(q, reader) - radius),  l_i = d_net(q, reader) + radius.
struct DistanceInterval {
  double min_dist = 0.0;  // s_i
  double max_dist = 0.0;  // l_i
};

// Interval through a one-to-all table sourced at the query point.
DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_query,
                                         const Deployment& deployment,
                                         const UncertainRegion& region);

// Exact network distance from one query point to every reader. This is the
// only distance information kNN pruning consumes — every uncertain region
// is a disc centred on a reader — so the engine hands this around instead
// of a whole one-to-all table. An entry is +inf when the reader is
// unreachable from the query; every consumer must treat +inf as "cannot be
// proven near", never as an orderable distance.
struct SourceDistances {
  // Indexed by ReaderId; empty means "no distances computed".
  std::vector<double> to_reader;

  bool empty() const { return to_reader.empty(); }

  // Evaluates `from_query.ToLocation` once per reader.
  static SourceDistances FromTable(const OneToAllDistances& from_query,
                                   const Deployment& deployment);
};

// Interval through per-reader distances; exactly the interval the table
// overload computes from the same distance.
DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region);

// The interval of every object in `objects` at `now`, in the same order.
std::vector<DistanceInterval> NetworkDistanceIntervals(
    std::span<const KnownObject> objects, const Deployment& deployment,
    const SourceDistances& dists, int64_t now, double max_speed);

// The kNN pruning bound f of [30]: the k-th smallest l_i, or +inf when
// there are at most k intervals (nothing can be pruned then).
double KnnPruneBound(std::span<const DistanceInterval> intervals, int k);

// Range-query candidate filter: objects whose uncertain region overlaps at
// least one of the rectangles, ascending. The engine passes a window's
// footprint (RangeQueryEvaluator::Footprint), not the bare window, because
// the range evaluator credits whole rooms and hallway widths. Objects
// without any reading are never candidates (they have never been inside
// the instrumented space).
std::vector<ObjectId> FilterRangeCandidates(
    std::span<const KnownObject> objects, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed);
// The same filter over a collector's current objects.
std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed);

// kNN candidate filter (distance-based pruning of [30]) over precomputed
// per-reader distances: drops every object whose s_i exceeds f =
// KnnPruneBound; the survivors come out ascending. With unreachable
// readers in play f can be +inf, in which case nothing is pruned — a sound
// superset; the evaluation stage, which expands over the actual graph, is
// what rules unreachable objects out.
std::vector<ObjectId> FilterKnnCandidates(std::span<const KnownObject> objects,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed);
// The same filter over a collector's current objects.
std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed);
// The same filter, running one Dijkstra from the query point.
std::vector<ObjectId> FilterKnnCandidates(const WalkingGraph& graph,
                                          const DataCollector& collector,
                                          const Deployment& deployment,
                                          const GraphLocation& query, int k,
                                          int64_t now, double max_speed);

}  // namespace ipqs

#endif  // IPQS_QUERY_UNCERTAIN_REGION_H_
