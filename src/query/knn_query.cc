#include "query/knn_query.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "common/check.h"

namespace ipqs {

namespace {

struct Frontier {
  double dist;
  AnchorId anchor;
  bool operator>(const Frontier& o) const { return dist > o.dist; }
};

// Per-thread expansion scratch, reused across queries: an anchor's distance
// slot is valid only while its stamp equals the running query's generation,
// so no query allocates or resets a slot per anchor. The heap is driven by
// the same push_heap/pop_heap calls a std::priority_queue makes, so anchors
// pop in the same order.
struct ExpansionScratch {
  std::vector<double> dist;
  std::vector<uint64_t> stamp;
  uint64_t generation = 0;
  std::vector<Frontier> heap;

  void Begin(size_t num_anchors) {
    if (dist.size() < num_anchors) {
      dist.resize(num_anchors);
      stamp.resize(num_anchors, 0);
    }
    ++generation;
    heap.clear();
  }
  double Dist(AnchorId a) const {
    return stamp[a] == generation ? dist[a]
                                  : std::numeric_limits<double>::infinity();
  }
  // Records `d` for `a` and queues it when it improves on the known
  // distance.
  void Relax(AnchorId a, double d) {
    if (d < Dist(a)) {
      dist[a] = d;
      stamp[a] = generation;
      heap.push_back({d, a});
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
  Frontier Pop() {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Frontier top = heap.back();
    heap.pop_back();
    return top;
  }
};

}  // namespace

KnnQueryEvaluator::KnnQueryEvaluator(const WalkingGraph* graph,
                                     const AnchorPointIndex* anchors,
                                     const AnchorGraph* anchor_graph)
    : graph_(graph), anchors_(anchors), anchor_graph_(anchor_graph) {
  IPQS_CHECK(graph != nullptr);
  IPQS_CHECK(anchors != nullptr);
  IPQS_CHECK(anchor_graph != nullptr);
}

KnnResult KnnQueryEvaluator::Evaluate(const AnchorObjectTable& table,
                                      const Point& query, int k) const {
  return Evaluate(table, graph_->NearestLocation(query, /*prefer_hallways=*/true),
                  k);
}

KnnResult KnnQueryEvaluator::Evaluate(const AnchorObjectTable& table,
                                      const GraphLocation& query,
                                      int k) const {
  return Evaluate(table, query, k, nullptr);
}

KnnResult KnnQueryEvaluator::Evaluate(
    const AnchorObjectTable& table, const GraphLocation& query, int k,
    const std::vector<ObjectId>* restrict_to) const {
  IPQS_CHECK_GT(k, 0);
  KnnResult out;
  std::vector<ObjectId> all;
  if (restrict_to == nullptr) {
    all = table.Objects();
    restrict_to = &all;
  }
  CandidateSums sums(*restrict_to);

  thread_local ExpansionScratch scratch;
  scratch.Begin(static_cast<size_t>(anchor_graph_->num_anchors()));
  for (const auto& [anchor, d] : anchor_graph_->SeedsFrom(*anchors_, query)) {
    scratch.Relax(anchor, d);
  }

  while (!scratch.heap.empty()) {
    const Frontier top = scratch.Pop();
    if (top.dist > scratch.Dist(top.anchor)) {
      continue;
    }
    ++out.anchors_searched;
    for (const auto& [object, p] : table.AtAnchor(top.anchor)) {
      if (sums.Add(object, p)) {
        out.total_probability += p;
      }
    }
    if (out.total_probability >= static_cast<double>(k)) {
      break;  // Algorithm 4's stopping criterion.
    }
    for (const AnchorGraph::Neighbor& nb :
         anchor_graph_->NeighborsOf(top.anchor)) {
      scratch.Relax(nb.anchor, top.dist + nb.dist);
    }
  }
  out.result.objects = sums.Objects();
  return out;
}

}  // namespace ipqs
