#include "filter/particle_soa.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ipqs {

void ParticleSoA::Resize(size_t n) {
  edge.resize(n);
  offset.resize(n);
  heading.resize(n);
  speed.resize(n);
  weight.resize(n);
  in_room.resize(n);
}

Particle ParticleSoA::Get(size_t i) const {
  IPQS_DCHECK(i < size());
  Particle p;
  p.loc.edge = edge[i];
  p.loc.offset = offset[i];
  p.heading = heading[i];
  p.speed = speed[i];
  p.weight = weight[i];
  p.in_room = in_room[i] != 0;
  return p;
}

void ParticleSoA::Set(size_t i, const Particle& p) {
  IPQS_DCHECK(i < size());
  edge[i] = p.loc.edge;
  offset[i] = p.loc.offset;
  heading[i] = p.heading;
  speed[i] = p.speed;
  weight[i] = p.weight;
  in_room[i] = p.in_room ? 1 : 0;
}

double TotalWeight(const ParticleSoA& soa) {
  double total = 0.0;
  for (size_t i = 0; i < soa.weight.size(); ++i) {
    total += soa.weight[i];
  }
  return total;
}

void NormalizeWeights(ParticleSoA* soa) {
  const double total = TotalWeight(*soa);
  IPQS_CHECK_GT(total, 0.0) << "cannot normalize all-zero weights";
  for (size_t i = 0; i < soa->weight.size(); ++i) {
    soa->weight[i] /= total;
  }
}

double EffectiveSampleSize(const ParticleSoA& soa) {
  double sum_sq = 0.0;
  for (size_t i = 0; i < soa.weight.size(); ++i) {
    sum_sq += soa.weight[i] * soa.weight[i];
  }
  if (sum_sq <= 0.0) {
    return 0.0;
  }
  return 1.0 / sum_sq;
}

EdgeSoA EdgeSoA::FromGraph(const WalkingGraph& graph) {
  const std::vector<Edge>& edges = graph.edges();
  EdgeSoA out;
  const size_t n = edges.size();
  out.a.resize(n);
  out.b.resize(n);
  out.length.resize(n);
  out.ax.resize(n);
  out.ay.resize(n);
  out.dx.resize(n);
  out.dy.resize(n);
  out.geo_len.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Edge& e = edges[i];
    out.a[i] = e.a;
    out.b[i] = e.b;
    out.length[i] = e.length;
    out.ax[i] = e.geometry.a.x;
    out.ay[i] = e.geometry.a.y;
    out.dx[i] = e.geometry.b.x - e.geometry.a.x;
    out.dy[i] = e.geometry.b.y - e.geometry.a.y;
    out.geo_len[i] = e.geometry.Length();
  }
  const std::vector<Node>& nodes = graph.nodes();
  out.node_is_room.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    out.node_is_room[i] = nodes[i].kind == NodeKind::kRoomCenter ? 1 : 0;
  }
  return out;
}

void ComputePositions(const EdgeSoA& edges, const ParticleSoA& soa,
                      double* x, double* y) {
  const size_t n = soa.size();
  for (size_t i = 0; i < n; ++i) {
    const EdgeId e = soa.edge[i];
    IPQS_DCHECK(e >= 0 && static_cast<size_t>(e) < edges.size());
    const double len = edges.geo_len[e];
    if (len <= 0.0) {
      // Degenerate geometry: PositionOf returns endpoint a.
      x[i] = edges.ax[e];
      y[i] = edges.ay[e];
      continue;
    }
    // Mirrors Segment::AtOffset + Lerp exactly: t = clamp(offset/len),
    // p = a + (b - a) * t.
    const double t = std::clamp(soa.offset[i] / len, 0.0, 1.0);
    x[i] = edges.ax[e] + edges.dx[e] * t;
    y[i] = edges.ay[e] + edges.dy[e] * t;
  }
}

}  // namespace ipqs
