#ifndef IPQS_GRAPH_GRAPH_GEN_H_
#define IPQS_GRAPH_GRAPH_GEN_H_

#include <cstdint>

#include "common/rng.h"
#include "graph/walking_graph.h"

namespace ipqs {

// Parameters for GenerateGraph. The defaults produce one connected
// ~100-edge component; tests use `num_components > 1` to build worlds
// where some location pairs are provably unreachable.
struct GeneratedGraphConfig {
  int nodes_per_component = 64;
  int num_components = 1;
  // Extra chord edges per component beyond its spanning tree, as a
  // fraction of the node count. 0.5 gives edge count ~= 1.5 * nodes.
  double extra_edge_fraction = 0.5;
  // Side length (meters) of the square each component is laid out in.
  double span = 100.0;
  uint64_t seed = 1;
};

// Deterministic synthetic walking graph: per component, nodes are jittered
// onto a grid, connected by a random spanning tree plus chord edges.
// Components are laid out in disjoint squares so every edge has positive
// length. Unlike BuildWalkingGraph this needs no floor plan, so it scales
// to arbitrary sizes for distance fuzzing and can be deliberately
// disconnected; the result therefore must NOT be passed to Validate()
// (which requires connectivity) when num_components > 1.
WalkingGraph GenerateGraph(const GeneratedGraphConfig& config);

// Uniformly random location on a uniformly random edge of `graph`.
GraphLocation RandomLocation(const WalkingGraph& graph, Rng& rng);

}  // namespace ipqs

#endif  // IPQS_GRAPH_GRAPH_GEN_H_
