#ifndef IPQS_FILTER_PARTICLE_SOA_H_
#define IPQS_FILTER_PARTICLE_SOA_H_

#include <cstdint>
#include <vector>

#include "filter/particle.h"
#include "graph/walking_graph.h"

namespace ipqs {

// An object's particle set, the filter's one particle representation:
// each field in its own contiguous buffer, so the per-second stages
// (predict, weight, resample) stream over flat arrays instead of striding
// through structs. The filter advances it in place; the particle cache,
// snapshots and anchor snapping read the same arrays. There is no other
// layout to convert to.
//
// Determinism contract: every reduction over a ParticleSoA (TotalWeight,
// NormalizeWeights, EffectiveSampleSize) sums in ascending index order.
struct ParticleSoA {
  std::vector<EdgeId> edge;
  std::vector<double> offset;
  std::vector<NodeId> heading;
  std::vector<double> speed;
  std::vector<double> weight;
  // Bool stored one-per-byte: std::vector<bool> packs bits, which defeats
  // both simple vector loads and the Set/Get field copies.
  std::vector<uint8_t> in_room;

  size_t size() const { return edge.size(); }
  bool empty() const { return edge.empty(); }
  void Resize(size_t n);

  // Field copies of particle i (tests and small fixtures).
  Particle Get(size_t i) const;
  void Set(size_t i, const Particle& p);

  friend bool operator==(const ParticleSoA&, const ParticleSoA&) = default;
};

// Sum of weights in ascending index order; 0 for an empty set.
double TotalWeight(const ParticleSoA& soa);

// Scales weights so they sum to 1. Precondition: total weight > 0.
void NormalizeWeights(ParticleSoA* soa);

// Effective sample size 1 / sum(w_i^2) of a normalized set (fixed
// summation order); a standard degeneracy diagnostic (Ns when uniform, 1
// when degenerate).
double EffectiveSampleSize(const ParticleSoA& soa);

// Flat per-edge mirror of the WalkingGraph fields the particle kernels
// touch every second, indexed by EdgeId. Avoids the bounds-checked
// Edge&/Node& accessors and the Segment sqrt in the hot loop: geo_len
// caches Segment::Length() (recomputed per call by PositionOf), so batch
// position evaluation is bit-identical to WalkingGraph::PositionOf.
// Built once per filter; the graph is immutable while a filter exists.
struct EdgeSoA {
  std::vector<NodeId> a;          // Edge::a (offset 0 endpoint).
  std::vector<NodeId> b;          // Edge::b (offset `length` endpoint).
  std::vector<double> length;     // Edge::length (the offset domain).
  std::vector<double> ax, ay;     // geometry.a
  std::vector<double> dx, dy;     // geometry.b - geometry.a
  std::vector<double> geo_len;    // geometry.Length()
  // Node-indexed (not edge-indexed): whether NodeId n is a kRoomCenter.
  // The motion model's node-crossing step consults the heading node's
  // kind every time a particle reaches it; one flat byte per node keeps
  // that lookup out of the Node structs.
  std::vector<uint8_t> node_is_room;

  static EdgeSoA FromGraph(const WalkingGraph& graph);

  size_t size() const { return a.size(); }
};

// Writes the graph position of every particle into x/y (each sized
// soa.size() by the caller). Per particle this computes exactly
// graph.PositionOf(loc) — same operations, same order, bit-identical
// results — but with the per-edge geometry preloaded into flat arrays.
void ComputePositions(const EdgeSoA& edges, const ParticleSoA& soa,
                      double* x, double* y);

// Reusable scratch buffers for the per-second filter stages, so the hot
// loop allocates nothing after warm-up: resampling double-buffers through
// `swap`/`sel`, batch weighting through `x`/`y`, batch draws through
// `draws`. One arena per thread (the filter keeps a thread_local one);
// contents carry no state between calls — only capacity.
struct FilterArena {
  std::vector<double> quantiles;
  std::vector<double> residuals;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> draws;
  std::vector<uint32_t> sel;
  std::vector<uint32_t> slow;
  ParticleSoA swap;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_PARTICLE_SOA_H_
