#include "graph/shortest_path.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"

namespace ipqs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueEntry {
  double dist;
  NodeId node;
  bool operator>(const QueueEntry& o) const { return dist > o.dist; }
};

using MinQueue =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

// Dijkstra seeded from the two endpoints of the source edge with their
// offset distances; optionally records predecessor nodes and edges.
std::vector<double> DijkstraFromLocation(const WalkingGraph& graph,
                                         const GraphLocation& src,
                                         std::vector<NodeId>* pred_node,
                                         std::vector<EdgeId>* pred_edge) {
  std::vector<double> dist(graph.num_nodes(), kInf);
  if (pred_node) pred_node->assign(graph.num_nodes(), kInvalidId);
  if (pred_edge) pred_edge->assign(graph.num_nodes(), kInvalidId);

  const Edge& e = graph.edge(src.edge);
  MinQueue queue;
  dist[e.a] = src.offset;
  dist[e.b] = e.length - src.offset;
  queue.push({dist[e.a], e.a});
  queue.push({dist[e.b], e.b});

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.dist > dist[top.node]) {
      continue;  // Stale entry.
    }
    for (EdgeId eid : graph.node(top.node).edges) {
      const Edge& out = graph.edge(eid);
      const NodeId next = out.a == top.node ? out.b : out.a;
      const double cand = top.dist + out.length;
      if (cand < dist[next]) {
        dist[next] = cand;
        if (pred_node) (*pred_node)[next] = top.node;
        if (pred_edge) (*pred_edge)[next] = eid;
        queue.push({cand, next});
      }
    }
  }
  return dist;
}

// Distance from `src` through the node distance field to `to`, including
// the same-edge shortcut.
double LocationDistance(const WalkingGraph& graph,
                        const std::vector<double>& node_dist,
                        const GraphLocation& src, const GraphLocation& to) {
  const Edge& te = graph.edge(to.edge);
  double best = std::min(node_dist[te.a] + to.offset,
                         node_dist[te.b] + (te.length - to.offset));
  if (src.edge == to.edge) {
    best = std::min(best, std::fabs(src.offset - to.offset));
  }
  return best;
}

}  // namespace

Path::Path(std::vector<PathLeg> legs) : legs_(std::move(legs)) {
  cumulative_.reserve(legs_.size());
  for (const PathLeg& leg : legs_) {
    cumulative_.push_back(length_);
    length_ += leg.Length();
  }
}

GraphLocation Path::Locate(double s) const {
  if (legs_.empty()) {
    IPQS_CHECK(anchor_.has_value());
    return *anchor_;
  }
  s = std::clamp(s, 0.0, length_);
  // Binary search for the leg containing arc length s.
  size_t idx =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), s) -
      cumulative_.begin();
  if (idx > 0) --idx;
  const PathLeg& leg = legs_[idx];
  const double into = s - cumulative_[idx];
  const double offset = leg.to_offset >= leg.from_offset
                            ? leg.from_offset + into
                            : leg.from_offset - into;
  return GraphLocation{leg.edge, offset};
}

GraphLocation Path::Start() const {
  if (legs_.empty()) {
    IPQS_CHECK(anchor_.has_value());
    return *anchor_;
  }
  return GraphLocation{legs_.front().edge, legs_.front().from_offset};
}

GraphLocation Path::End() const {
  if (legs_.empty()) {
    IPQS_CHECK(anchor_.has_value());
    return *anchor_;
  }
  return GraphLocation{legs_.back().edge, legs_.back().to_offset};
}

OneToAllDistances::OneToAllDistances(const WalkingGraph& graph,
                                     const GraphLocation& source)
    : graph_(graph),
      source_(source),
      node_dist_(DijkstraFromLocation(graph, source, nullptr, nullptr)) {}

double OneToAllDistances::ToLocation(const GraphLocation& loc) const {
  return LocationDistance(graph_, node_dist_, source_, loc);
}

double NetworkDistance(const WalkingGraph& graph, const GraphLocation& from,
                       const GraphLocation& to) {
  const Edge& te = graph.edge(to.edge);
  // Best distance provable so far: the same-edge shortcut plus any settled
  // target-endpoint route. Terms are the exact expressions LocationDistance
  // evaluates, so the early exit cannot change the result bit-wise.
  double best = kInf;
  if (from.edge == to.edge) {
    best = std::fabs(from.offset - to.offset);
  }

  std::vector<double> dist(graph.num_nodes(), kInf);
  std::vector<char> settled(graph.num_nodes(), 0);
  const Edge& fe = graph.edge(from.edge);
  MinQueue queue;
  dist[fe.a] = from.offset;
  dist[fe.b] = fe.length - from.offset;
  queue.push({dist[fe.a], fe.a});
  queue.push({dist[fe.b], fe.b});

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.dist > dist[top.node]) {
      continue;  // Stale entry.
    }
    if (top.dist >= best) {
      break;  // Every remaining route is at least `best` long already.
    }
    settled[top.node] = 1;
    if (top.node == te.a) {
      best = std::min(best, dist[te.a] + to.offset);
    }
    if (top.node == te.b) {
      best = std::min(best, dist[te.b] + (te.length - to.offset));
    }
    if (settled[te.a] && settled[te.b]) {
      break;  // Both routes into the target edge are final.
    }
    for (EdgeId eid : graph.node(top.node).edges) {
      const Edge& out = graph.edge(eid);
      const NodeId next = out.a == top.node ? out.b : out.a;
      const double cand = top.dist + out.length;
      if (cand < dist[next]) {
        dist[next] = cand;
        queue.push({cand, next});
      }
    }
  }
  return best;
}

StatusOr<Path> FindShortestPath(const WalkingGraph& graph,
                                const GraphLocation& from,
                                const GraphLocation& to) {
  std::vector<NodeId> pred_node;
  std::vector<EdgeId> pred_edge;
  const std::vector<double> dist =
      DijkstraFromLocation(graph, from, &pred_node, &pred_edge);

  const Edge& te = graph.edge(to.edge);
  // Candidate terminals: arrive at `to` via node a, via node b, or directly
  // along the shared edge.
  const double via_a = dist[te.a] + to.offset;
  const double via_b = dist[te.b] + (te.length - to.offset);
  double direct = kInf;
  if (from.edge == to.edge) {
    direct = std::fabs(from.offset - to.offset);
  }

  if (direct <= via_a && direct <= via_b) {
    if (std::fabs(from.offset - to.offset) < 1e-12) {
      return Path(from);  // Degenerate: already there.
    }
    return Path({PathLeg{from.edge, from.offset, to.offset}});
  }

  const bool use_a = via_a <= via_b;
  NodeId terminal = use_a ? te.a : te.b;
  if (dist[terminal] == kInf) {
    return Status::NotFound("no path between locations");
  }

  // Walk predecessors back to one of the source edge endpoints.
  std::vector<std::pair<NodeId, EdgeId>> rev;  // (node, edge used to reach it)
  NodeId cur = terminal;
  while (pred_node[cur] != kInvalidId) {
    rev.push_back({cur, pred_edge[cur]});
    cur = pred_node[cur];
  }
  // `cur` is now an endpoint of from.edge reached directly from the source.
  const Edge& fe = graph.edge(from.edge);
  IPQS_CHECK(cur == fe.a || cur == fe.b);

  std::vector<PathLeg> legs;
  // First leg: from the source offset to the chosen endpoint of from.edge.
  const double first_to = graph.OffsetOfNode(from.edge, cur);
  if (std::fabs(first_to - from.offset) > 1e-12) {
    legs.push_back(PathLeg{from.edge, from.offset, first_to});
  }
  // Middle legs: full edges along the node path (rev is reversed).
  NodeId at = cur;
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    const EdgeId eid = it->second;
    const NodeId next = it->first;
    legs.push_back(PathLeg{eid, graph.OffsetOfNode(eid, at),
                           graph.OffsetOfNode(eid, next)});
    at = next;
  }
  // Last leg: from the terminal node into to.edge.
  const double last_from = graph.OffsetOfNode(to.edge, terminal);
  if (std::fabs(last_from - to.offset) > 1e-12) {
    legs.push_back(PathLeg{to.edge, last_from, to.offset});
  }
  if (legs.empty()) {
    return Path(from);
  }
  return Path(std::move(legs));
}

}  // namespace ipqs
