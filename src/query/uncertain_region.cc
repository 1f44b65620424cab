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
  ur.radius =
      max_speed * static_cast<double>(now - last_reading.time) + d.range;
  return ur;
}

DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_query,
                                         const Deployment& deployment,
                                         const UncertainRegion& region) {
  const double to_reader =
      from_query.ToLocation(deployment.reader(region.reader).loc);
  return DistanceInterval{std::max(0.0, to_reader - region.radius),
                          to_reader + region.radius};
}

DistanceInterval NetworkDistanceInterval(const OneToAllDistances& from_source,
                                         double source_slack,
                                         const Deployment& deployment,
                                         const UncertainRegion& region) {
  const double to_reader =
      from_source.ToLocation(deployment.reader(region.reader).loc);
  // True distance from the query is within source_slack of `to_reader`
  // (triangle inequality through the table source), so widening by it
  // keeps the interval a superset of the exact [s_i, l_i].
  const double pad = region.radius + source_slack;
  return DistanceInterval{std::max(0.0, to_reader - pad), to_reader + pad};
}

SourceDistances SourceDistances::FromTable(const OneToAllDistances& table,
                                           double source_slack,
                                           const Deployment& deployment) {
  SourceDistances out;
  out.slack = source_slack;
  out.to_reader.reserve(deployment.num_readers());
  for (ReaderId r = 0; r < deployment.num_readers(); ++r) {
    const double d = table.ToLocation(deployment.reader(r).loc);
    out.to_reader.push_back(Bound{d, d});
  }
  return out;
}

DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region) {
  const SourceDistances::Bound& b = dists.to_reader[region.reader];
  const double pad = region.radius + dists.slack;
  // An unreachable reader (b = {inf, inf}) yields {inf, inf}: the object
  // can never be proven near, and inf - pad stays inf (never NaN, since
  // pad is finite).
  return DistanceInterval{std::max(0.0, b.lower - pad), b.upper + pad};
}

std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed) {
  // Every uncertain region is a disc centered on a reader, and it overlaps
  // some rectangle iff its radius reaches the rectangle nearest that
  // reader. So one distance per reader (memoized on first use) decides
  // every object detected there, exactly as testing each rectangle would.
  std::vector<double> reach(static_cast<size_t>(deployment.num_readers()),
                            -1.0);
  std::vector<ObjectId> candidates;
  for (ObjectId object : collector.KnownObjects()) {
    const auto last = collector.LastReading(object);
    if (!last.has_value()) {
      continue;
    }
    const UncertainRegion ur =
        ComputeUncertainRegion(deployment, object, *last, now, max_speed);
    double& d = reach[static_cast<size_t>(last->reader)];
    if (d < 0.0) {
      d = std::numeric_limits<double>::infinity();
      for (const Rect& w : windows) {
        d = std::min(d, w.DistanceTo(ur.center));
      }
    }
    if (d <= ur.radius) {
      candidates.push_back(object);
    }
  }
  return candidates;
}

std::vector<ObjectId> FilterKnnCandidates(const WalkingGraph& graph,
                                          const DataCollector& collector,
                                          const Deployment& deployment,
                                          const GraphLocation& query, int k,
                                          int64_t now, double max_speed) {
  const OneToAllDistances from_query(graph, query);
  return FilterKnnCandidates(collector, deployment, from_query,
                             /*source_slack=*/0.0, k, now, max_speed);
}

std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const OneToAllDistances& from_source,
                                          double source_slack, int k,
                                          int64_t now, double max_speed) {
  return FilterKnnCandidates(
      collector, deployment,
      SourceDistances::FromTable(from_source, source_slack, deployment), k,
      now, max_speed);
}

std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed) {
  IPQS_CHECK_GT(k, 0);

  struct Entry {
    ObjectId object;
    DistanceInterval interval;
  };
  std::vector<Entry> entries;
  for (ObjectId object : collector.KnownObjects()) {
    const auto last = collector.LastReading(object);
    if (!last.has_value()) {
      continue;
    }
    const UncertainRegion ur =
        ComputeUncertainRegion(deployment, object, *last, now, max_speed);
    entries.push_back({object, NetworkDistanceInterval(dists, ur)});
  }
  if (static_cast<int>(entries.size()) <= k) {
    std::vector<ObjectId> all;
    all.reserve(entries.size());
    for (const Entry& e : entries) {
      all.push_back(e.object);
    }
    return all;
  }

  // f = k-th smallest l_i.
  std::vector<double> max_dists;
  max_dists.reserve(entries.size());
  for (const Entry& e : entries) {
    max_dists.push_back(e.interval.max_dist);
  }
  std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                   max_dists.end());
  const double f = max_dists[k - 1];

  std::vector<ObjectId> candidates;
  for (const Entry& e : entries) {
    if (e.interval.min_dist <= f) {
      candidates.push_back(e.object);
    }
  }
  return candidates;
}

}  // namespace ipqs
