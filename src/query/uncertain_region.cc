#include "query/uncertain_region.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ipqs {

UncertainRegion ComputeUncertainRegion(const Deployment& deployment,
                                       ObjectId object,
                                       const AggregatedEntry& last_reading,
                                       int64_t now, double max_speed) {
  IPQS_CHECK_GE(now, last_reading.time);
  const Reader& d = deployment.reader(last_reading.reader);
  UncertainRegion ur;
  ur.object = object;
  ur.reader = last_reading.reader;
  ur.center = d.pos;
  ur.radius = UncertainRadius(d.range, last_reading.time, now, max_speed);
  return ur;
}

namespace {

// Eq. 6 around one query-to-reader distance. An unreachable reader (+inf)
// yields {inf, inf}: the object can never be proven near, and inf - radius
// stays inf (never NaN, since the radius is finite).
DistanceInterval IntervalAround(double to_reader, double radius) {
  return DistanceInterval{std::max(0.0, to_reader - radius),
                          to_reader + radius};
}

}  // namespace

DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_query,
                                         const Deployment& deployment,
                                         const UncertainRegion& region) {
  return IntervalAround(
      from_query.ToLocation(deployment.reader(region.reader).loc),
      region.radius);
}

SourceDistances SourceDistances::FromTable(const OneToAllDistances& from_query,
                                           const Deployment& deployment) {
  SourceDistances out;
  out.to_reader.reserve(deployment.num_readers());
  for (ReaderId r = 0; r < deployment.num_readers(); ++r) {
    out.to_reader.push_back(from_query.ToLocation(deployment.reader(r).loc));
  }
  return out;
}

DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region) {
  return IntervalAround(dists.to_reader[region.reader], region.radius);
}

std::vector<KnownObject> KnownObjectsOf(const DataCollector& collector) {
  std::vector<KnownObject> out;
  for (ObjectId object : collector.KnownObjects()) {
    if (const auto last = collector.LastReading(object)) {
      out.push_back({object, *last});
    }
  }
  return out;
}

std::vector<DistanceInterval> NetworkDistanceIntervals(
    std::span<const KnownObject> objects, const Deployment& deployment,
    const SourceDistances& dists, int64_t now, double max_speed) {
  std::vector<DistanceInterval> intervals;
  intervals.reserve(objects.size());
  for (const KnownObject& o : objects) {
    intervals.push_back(NetworkDistanceInterval(
        dists,
        ComputeUncertainRegion(deployment, o.object, o.last, now, max_speed)));
  }
  return intervals;
}

double KnnPruneBound(std::span<const DistanceInterval> intervals, int k) {
  IPQS_CHECK_GT(k, 0);
  if (intervals.size() <= static_cast<size_t>(k)) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> max_dists;
  max_dists.reserve(intervals.size());
  for (const DistanceInterval& interval : intervals) {
    max_dists.push_back(interval.max_dist);
  }
  std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                   max_dists.end());
  return max_dists[k - 1];
}

std::vector<ObjectId> FilterRangeCandidates(
    std::span<const KnownObject> objects, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed) {
  // Every uncertain region is a disc centered on a reader, and it overlaps
  // some rectangle iff its radius reaches the rectangle nearest that
  // reader. So one distance per reader decides every object detected
  // there, exactly as testing each rectangle would.
  struct ReaderReach {
    double range;
    double gap;  // Distance from the reader to the nearest rectangle.
  };
  std::vector<ReaderReach> readers;
  readers.reserve(static_cast<size_t>(deployment.num_readers()));
  for (ReaderId r = 0; r < deployment.num_readers(); ++r) {
    const Reader& reader = deployment.reader(r);
    double gap = std::numeric_limits<double>::infinity();
    for (const Rect& w : windows) {
      gap = std::min(gap, w.DistanceTo(reader.pos));
    }
    readers.push_back({reader.range, gap});
  }
  // Written unconditionally and kept by advancing the count: whether an
  // object survives is unpredictable, so a branch would mispredict.
  std::vector<ObjectId> candidates(objects.size());
  size_t kept = 0;
  for (const KnownObject& o : objects) {
    IPQS_CHECK_GE(now, o.last.time);
    IPQS_CHECK(o.last.reader >= 0 &&
               o.last.reader < static_cast<ReaderId>(readers.size()));
    const ReaderReach& r = readers[static_cast<size_t>(o.last.reader)];
    candidates[kept] = o.object;
    kept += r.gap <= UncertainRadius(r.range, o.last.time, now, max_speed);
  }
  candidates.resize(kept);
  return candidates;
}

std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed) {
  return FilterRangeCandidates(KnownObjectsOf(collector), deployment, windows,
                               now, max_speed);
}

std::vector<ObjectId> FilterKnnCandidates(std::span<const KnownObject> objects,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed) {
  const std::vector<DistanceInterval> intervals =
      NetworkDistanceIntervals(objects, deployment, dists, now, max_speed);
  const double f = KnnPruneBound(intervals, k);
  std::vector<ObjectId> candidates;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (intervals[i].min_dist <= f) {
      candidates.push_back(objects[i].object);
    }
  }
  return candidates;
}

std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed) {
  return FilterKnnCandidates(KnownObjectsOf(collector), deployment, dists, k,
                             now, max_speed);
}

std::vector<ObjectId> FilterKnnCandidates(const WalkingGraph& graph,
                                          const DataCollector& collector,
                                          const Deployment& deployment,
                                          const GraphLocation& query, int k,
                                          int64_t now, double max_speed) {
  return FilterKnnCandidates(
      collector, deployment,
      SourceDistances::FromTable(OneToAllDistances(graph, query), deployment),
      k, now, max_speed);
}

}  // namespace ipqs
