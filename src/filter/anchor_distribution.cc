#include "filter/anchor_distribution.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/check.h"

namespace ipqs {

namespace {

// Per-thread snapping scratch: one mass slot per anchor of the largest
// index snapped on this thread. Every slot is zero and unmarked between
// calls, so a call costs its particles, not the index size.
struct SnapScratch {
  std::vector<double> mass;
  std::vector<uint8_t> touched;
  std::vector<AnchorId> anchors;  // The touched anchors, in touch order.
};

}  // namespace

AnchorDistribution AnchorDistribution::FromParticles(
    const AnchorPointIndex& index, const ParticleSoA& particles) {
  thread_local SnapScratch scratch;
  const size_t num_anchors = static_cast<size_t>(index.num_anchors());
  if (scratch.mass.size() < num_anchors) {
    scratch.mass.resize(num_anchors, 0.0);
    scratch.touched.resize(num_anchors, 0);
  }
  // Each anchor sums its particles' weights in particle order, starting
  // from 0.0, and the total likewise: the same additions an ordered map
  // keyed by anchor would make, so the result is bit-identical to one.
  double total = 0.0;
  for (size_t i = 0; i < particles.size(); ++i) {
    const AnchorId ap = index.NearestOnEdge(
        GraphLocation{particles.edge[i], particles.offset[i]});
    if (scratch.touched[ap] == 0) {
      scratch.touched[ap] = 1;
      scratch.anchors.push_back(ap);
    }
    const double w = particles.weight[i];
    scratch.mass[ap] += w;
    total += w;
  }
  std::sort(scratch.anchors.begin(), scratch.anchors.end());
  AnchorDistribution dist;
  if (total > 0.0) {
    dist.entries_.reserve(scratch.anchors.size());
    for (AnchorId a : scratch.anchors) {
      dist.entries_.emplace_back(a, scratch.mass[a] / total);
    }
  }
  for (AnchorId a : scratch.anchors) {
    scratch.mass[a] = 0.0;
    scratch.touched[a] = 0;
  }
  scratch.anchors.clear();
  return dist;
}

AnchorDistribution AnchorDistribution::Uniform(std::vector<AnchorId> anchors) {
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  AnchorDistribution dist;
  if (anchors.empty()) {
    return dist;
  }
  const double p = 1.0 / static_cast<double>(anchors.size());
  dist.entries_.reserve(anchors.size());
  for (AnchorId a : anchors) {
    dist.entries_.emplace_back(a, p);
  }
  return dist;
}

AnchorDistribution AnchorDistribution::FromWeights(
    std::vector<std::pair<AnchorId, double>> weighted) {
  std::map<AnchorId, double> mass;
  double total = 0.0;
  for (const auto& [anchor, w] : weighted) {
    IPQS_CHECK_GE(w, 0.0);
    if (w > 0.0) {
      mass[anchor] += w;
      total += w;
    }
  }
  AnchorDistribution dist;
  if (total <= 0.0) {
    return dist;
  }
  dist.entries_.reserve(mass.size());
  for (const auto& [anchor, m] : mass) {
    dist.entries_.emplace_back(anchor, m / total);
  }
  return dist;
}

double AnchorDistribution::ProbabilityAt(AnchorId anchor) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), anchor,
      [](const std::pair<AnchorId, double>& e, AnchorId a) {
        return e.first < a;
      });
  if (it != entries_.end() && it->first == anchor) {
    return it->second;
  }
  return 0.0;
}

double AnchorDistribution::TotalProbability() const {
  double total = 0.0;
  for (const auto& [_, p] : entries_) {
    total += p;
  }
  return total;
}

std::vector<AnchorId> AnchorDistribution::TopK(int k) const {
  std::vector<std::pair<AnchorId, double>> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<AnchorId> out;
  const int n = std::min<int>(k, static_cast<int>(sorted.size()));
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(sorted[i].first);
  }
  return out;
}

void AnchorObjectTable::Set(ObjectId object, AnchorDistribution distribution) {
  Erase(object);
  // Per-anchor lists stay sorted by object id, so the table's content — and
  // every accumulation order downstream of AtAnchor — is canonical: it
  // depends only on WHICH (object, distribution) pairs are present, never
  // on the order queries inserted them in.
  for (const auto& [anchor, p] : distribution.entries()) {
    IPQS_CHECK_GE(anchor, 0);
    if (static_cast<size_t>(anchor) >= by_anchor_.size()) {
      by_anchor_.resize(static_cast<size_t>(anchor) + 1);
    }
    auto& list = by_anchor_[anchor];
    const auto pos = std::lower_bound(
        list.begin(), list.end(), object,
        [](const std::pair<ObjectId, double>& e, ObjectId id) {
          return e.first < id;
        });
    list.emplace(pos, object, p);
  }
  by_object_[object] = std::move(distribution);
}

void AnchorObjectTable::Erase(ObjectId object) {
  const auto it = by_object_.find(object);
  if (it == by_object_.end()) {
    return;
  }
  // Set sized by_anchor_ past every anchor of the object's distribution.
  for (const auto& [anchor, _] : it->second.entries()) {
    std::erase_if(by_anchor_[anchor],
                  [object](const auto& e) { return e.first == object; });
  }
  by_object_.erase(it);
}

void AnchorObjectTable::Clear() {
  by_object_.clear();
  // The lists keep their capacity (at most one timestamp's peak of
  // entries), so refilling the table after the query time moves does not
  // reallocate them.
  for (auto& list : by_anchor_) {
    list.clear();
  }
}

const std::vector<std::pair<ObjectId, double>>& AnchorObjectTable::AtAnchor(
    AnchorId anchor) const {
  // Leaked singleton keeps the static trivially destructible.
  static const auto& kEmpty = *new std::vector<std::pair<ObjectId, double>>();
  return anchor >= 0 && static_cast<size_t>(anchor) < by_anchor_.size()
             ? by_anchor_[anchor]
             : kEmpty;
}

const AnchorDistribution* AnchorObjectTable::Distribution(
    ObjectId object) const {
  const auto it = by_object_.find(object);
  return it == by_object_.end() ? nullptr : &it->second;
}

std::vector<ObjectId> AnchorObjectTable::Objects() const {
  std::vector<ObjectId> out;
  out.reserve(by_object_.size());
  for (const auto& [id, _] : by_object_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ipqs
