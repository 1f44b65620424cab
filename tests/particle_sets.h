// Small particle-set builders shared by the filter, property and
// integration tests.

#ifndef IPQS_TESTS_PARTICLE_SETS_H_
#define IPQS_TESTS_PARTICLE_SETS_H_

#include <vector>

#include "common/rng.h"
#include "filter/particle_soa.h"
#include "filter/resampler.h"

namespace ipqs {

// One particle per weight, particle i on edge i at offset 0, so survivors
// of a resampling step are traceable to their source by edge id.
inline ParticleSoA TaggedParticles(const std::vector<double>& weights) {
  ParticleSoA particles;
  particles.Resize(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    Particle p;
    p.loc = GraphLocation{static_cast<EdgeId>(i), 0.0};
    p.weight = weights[i];
    particles.Set(i, p);
  }
  return particles;
}

// Resamples a set holding arbitrary positive weights: normalizes once,
// then runs the pre-normalized kernel, exactly as the filter does after a
// reweight.
inline void NormalizeAndResample(ResamplingScheme scheme,
                                 ParticleSoA* particles, Rng& rng) {
  NormalizeWeights(particles);
  FilterArena arena;
  Resample(scheme, particles, &arena, rng);
}

}  // namespace ipqs

#endif  // IPQS_TESTS_PARTICLE_SETS_H_
