#ifndef IPQS_FILTER_PARTICLE_H_
#define IPQS_FILTER_PARTICLE_H_

#include "graph/walking_graph.h"

namespace ipqs {

// One hypothesis of an object's state: a position on the walking graph, a
// heading (the edge endpoint the particle is walking toward), a walking
// speed, and an importance weight. The filter stores particle sets as a
// ParticleSoA (particle_soa.h); this struct is only the by-value element
// of ParticleSoA::Get/Set.
struct Particle {
  GraphLocation loc;
  NodeId heading = kInvalidId;  // One of loc.edge's endpoints.
  double speed = 1.0;           // Meters per second.
  double weight = 1.0;
  // True while dwelling inside a room (parked at the room-center end of a
  // stub edge, waiting for the exit coin flip).
  bool in_room = false;

  friend bool operator==(const Particle&, const Particle&) = default;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_PARTICLE_H_
