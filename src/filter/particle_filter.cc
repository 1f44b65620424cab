#include "filter/particle_filter.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "filter/resampler.h"

namespace ipqs {

ParticleFilter::ParticleFilter(const WalkingGraph* graph,
                               const Deployment* deployment,
                               const FilterConfig& config)
    : graph_(graph),
      deployment_(deployment),
      config_(config),
      motion_(config.motion),
      measurement_(config.measurement) {
  IPQS_CHECK(graph != nullptr);
  IPQS_CHECK(deployment != nullptr);
  IPQS_CHECK_GT(config.num_particles, 0);
  IPQS_CHECK_GE(config.max_coast_seconds, 0);
  edges_soa_ = EdgeSoA::FromGraph(*graph);
}

std::vector<Particle> ParticleFilter::InitializeAtReader(ReaderId reader,
                                                         Rng& rng) const {
  const Reader& r = deployment_->reader(reader);
  const std::vector<EdgeInterval> intervals =
      EdgeIntervalsInRange(*graph_, r);

  std::vector<Particle> particles;
  particles.reserve(config_.num_particles);
  const double w = 1.0 / config_.num_particles;

  if (intervals.empty()) {
    // Pathological range (smaller than the snap error): park everything at
    // the reader's own graph location.
    for (int i = 0; i < config_.num_particles; ++i) {
      Particle p;
      p.loc = r.loc;
      const Edge& e = graph_->edge(r.loc.edge);
      p.heading = rng.Bernoulli(0.5) ? e.a : e.b;
      p.speed = motion_.SampleSpeed(rng);
      p.weight = w;
      particles.push_back(p);
    }
    return particles;
  }

  std::vector<double> lengths;
  lengths.reserve(intervals.size());
  for (const EdgeInterval& iv : intervals) {
    lengths.push_back(iv.Length());
  }

  for (int i = 0; i < config_.num_particles; ++i) {
    const EdgeInterval& iv = intervals[rng.Categorical(lengths)];
    const Edge& e = graph_->edge(iv.edge);
    Particle p;
    p.loc = GraphLocation{iv.edge, rng.Uniform(iv.lo, iv.hi)};
    p.heading = rng.Bernoulli(0.5) ? e.a : e.b;
    p.speed = motion_.SampleSpeed(rng);
    p.weight = w;
    particles.push_back(p);
  }
  return particles;
}

void ParticleFilter::Advance(std::vector<Particle>* particles,
                             const DataCollector::ObjectHistory& history,
                             int64_t from_time, int64_t to_time, int* seconds,
                             Rng& rng) const {
  std::unordered_map<int64_t, ReaderId> reading_at;
  reading_at.reserve(history.entries.size());
  // The newest observation at or before from_time anchors the gap clock;
  // computed from the history (not from from_time) so a cache Resume sees
  // the same gap a full Run would.
  int64_t last_obs = std::numeric_limits<int64_t>::min();
  for (const AggregatedEntry& e : history.entries) {
    reading_at[e.time] = e.reader;
    if (e.time <= from_time) {
      last_obs = std::max(last_obs, e.time);
    }
  }
  if (last_obs == std::numeric_limits<int64_t>::min()) {
    last_obs = from_time;
  }

  // The per-second stages run on the structure-of-arrays layout; AoS is
  // only the interchange format at the boundaries (cache, persistence,
  // anchor projection, re-seeding). One conversion pair per Advance call,
  // amortized over all simulated seconds. The buffers are thread_local so
  // the hot loop allocates nothing after warm-up; safe because Advance is
  // non-reentrant and all randomness flows through the explicit `rng`.
  thread_local ParticleSoA soa;
  thread_local FilterArena arena;
  thread_local std::vector<uint8_t> trust_mask;
  soa.AssignFrom(*particles);
  const EdgeSoA& edges = edges_soa_;

  for (int64_t tj = from_time + 1; tj <= to_time; ++tj) {
    // Stage timing samples every 4th simulated second (keyed to the
    // absolute timestamp, so it is deterministic and identical across
    // runs); see FilterMetrics.
    const bool timed = metrics_.predict_ns != nullptr && (tj & 3) == 0;
    int64_t stage_start = timed ? obs::MonotonicNanos() : 0;

    // Predict: every particle walks for one second.
    motion_.StepAll(*graph_, edges, &soa, &arena, 1.0, rng);
    ++*seconds;
    if (timed) {
      const int64_t now_ns = obs::MonotonicNanos();
      metrics_.predict_ns->Observe(now_ns - stage_start);
      stage_start = now_ns;
    }

    // Gap widening (see FilterConfig): while coasting across a reading
    // gap, diffuse positions a little extra so the cloud honestly reports
    // the accumulated uncertainty. Off by default (jitter 0.0).
    if (config_.gap_position_jitter > 0.0 &&
        tj - last_obs > config_.gap_widen_after_seconds) {
      motion_.WidenPositionAll(edges, &soa, &arena,
                               config_.gap_position_jitter, rng);
    }

    // Update: reweight against the observation of second tj, if any.
    const auto it = reading_at.find(tj);
    bool reweighted = false;
    if (it != reading_at.end()) {
      last_obs = tj;
      const size_t n = soa.size();
      arena.x.resize(n);
      arena.y.resize(n);
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      const size_t consistent = measurement_.WeightOnDetection(
          *deployment_, it->second, n, arena.x.data(), arena.y.data(),
          soa.weight.data());
      if (consistent == 0) {
        // The whole cloud contradicts a trustworthy observation (sample
        // impoverishment, or the object did something the motion model
        // finds very unlikely). Re-seed at the detecting reader — exactly
        // the Algorithm 2 initialization, applied mid-stream. (The
        // scaled weights are discarded with the rest of the old cloud.)
        soa.AssignFrom(InitializeAtReader(it->second, rng));
        if (metrics_.reseeds != nullptr) {
          metrics_.reseeds->Increment();
        }
        if (timed && metrics_.weight_ns != nullptr) {
          // The consistency scan and re-seed are this second's update
          // stage; record it rather than dropping the elapsed time on the
          // floor (the timer previously skipped re-seed seconds entirely,
          // biasing weight_ns low exactly when the filter struggles).
          metrics_.weight_ns->Observe(obs::MonotonicNanos() - stage_start);
        }
        continue;
      }
      reweighted = true;
    } else if (measurement_.config().use_negative_information) {
      const size_t n = soa.size();
      arena.x.resize(n);
      arena.y.resize(n);
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      // Silence trust: a reader that is suspect/dead (health monitor) or
      // produced no readings at all during second tj contributes no
      // discount — its silence is noise, not information. Masked by the
      // REPLAYED second, so a cache Resume weighs each second the same way
      // a cold Run would at the same evaluation time.
      const uint8_t* mask = nullptr;
      if (trust_ != nullptr) {
        const size_t num_readers =
            static_cast<size_t>(deployment_->num_readers());
        trust_mask.resize(num_readers);
        if (trust_->FillSilenceTrust(tj, num_readers, trust_mask.data())) {
          mask = trust_mask.data();
        }
      }
      reweighted = measurement_.WeightOnSilence(*deployment_, n,
                                                arena.x.data(), arena.y.data(),
                                                soa.weight.data(), mask) > 0;
    }

    if (timed && reweighted && metrics_.weight_ns != nullptr) {
      const int64_t now_ns = obs::MonotonicNanos();
      metrics_.weight_ns->Observe(now_ns - stage_start);
      stage_start = now_ns;
    }

    if (reweighted) {
      // SIR: resample at the observation (weights come out uniform), then
      // roughen so replicated particles diverge again. With adaptive
      // resampling enabled, skip while the ESS is still healthy. Weights
      // are normalized exactly once — here — and the resampler consumes
      // them pre-normalized (it used to renormalize internally, wasted
      // work that also perturbed the CDF by an ulp).
      NormalizeWeights(&soa);
      const double ess_threshold =
          config_.resample_ess_fraction * static_cast<double>(soa.size());
      if (EffectiveSampleSize(soa) <= ess_threshold) {
        Resample(config_.resampling, &soa, &arena, rng);
        const bool time_roughen = timed && metrics_.roughen_ns != nullptr;
        const int64_t roughen_start =
            time_roughen ? obs::MonotonicNanos() : 0;
        motion_.RoughenAll(edges, &soa, rng);
        if (time_roughen) {
          metrics_.roughen_ns->Observe(obs::MonotonicNanos() - roughen_start);
        }
      }
      if (timed && metrics_.resample_ns != nullptr) {
        metrics_.resample_ns->Observe(obs::MonotonicNanos() - stage_start);
      }
    }
  }

  soa.CopyTo(particles);
}

FilterResult ParticleFilter::Run(const DataCollector::ObjectHistory& history,
                                 int64_t now, Rng& rng) const {
  IPQS_CHECK(!history.entries.empty());
  const obs::ScopedTimer timer(metrics_.run_ns);
  if (metrics_.particles != nullptr) {
    metrics_.particles->Set(config_.num_particles);
  }
  const int64_t t0 = history.FirstTime();
  const int64_t td = history.LastTime();
  const int64_t tmin = std::min(td + config_.max_coast_seconds, now);

  FilterResult result;
  result.particles = InitializeAtReader(history.entries.front().reader, rng);
  result.time = t0;
  Advance(&result.particles, history, t0, tmin, &result.seconds_processed,
          rng);
  result.time = tmin;
  return result;
}

FilterResult ParticleFilter::Resume(FilterResult state,
                                    const DataCollector::ObjectHistory& history,
                                    int64_t now, Rng& rng) const {
  IPQS_CHECK(!history.entries.empty());
  const obs::ScopedTimer timer(metrics_.resume_ns);
  const int64_t td = history.LastTime();
  const int64_t tmin = std::min(td + config_.max_coast_seconds, now);
  if (tmin <= state.time) {
    return state;  // Nothing new to process.
  }
  Advance(&state.particles, history, state.time, tmin,
          &state.seconds_processed, rng);
  state.time = tmin;
  return state;
}

AnchorDistribution ParticleFilter::Infer(
    const AnchorPointIndex& anchors,
    const DataCollector::ObjectHistory& history, int64_t now,
    Rng& rng) const {
  const FilterResult result = Run(history, now, rng);
  return AnchorDistribution::FromParticles(anchors, result.particles);
}

}  // namespace ipqs
