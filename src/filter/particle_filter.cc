#include "filter/particle_filter.h"

#include <algorithm>
#include <iterator>

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

ParticleSoA ParticleFilter::InitializeAtReader(ReaderId reader,
                                               Rng& rng) const {
  const Reader& r = deployment_->reader(reader);
  const std::vector<EdgeInterval> intervals =
      EdgeIntervalsInRange(*graph_, r);

  const size_t n = static_cast<size_t>(config_.num_particles);
  ParticleSoA particles;
  particles.Resize(n);
  std::fill(particles.weight.begin(), particles.weight.end(),
            1.0 / config_.num_particles);

  if (intervals.empty()) {
    // Pathological range (smaller than the snap error): park everything at
    // the reader's own graph location.
    const Edge& e = graph_->edge(r.loc.edge);
    for (size_t i = 0; i < n; ++i) {
      particles.edge[i] = r.loc.edge;
      particles.offset[i] = r.loc.offset;
      particles.heading[i] = rng.Bernoulli(0.5) ? e.a : e.b;
      particles.speed[i] = motion_.SampleSpeed(rng);
    }
    return particles;
  }

  std::vector<double> lengths;
  lengths.reserve(intervals.size());
  for (const EdgeInterval& iv : intervals) {
    lengths.push_back(iv.Length());
  }

  for (size_t i = 0; i < n; ++i) {
    const EdgeInterval& iv = intervals[rng.Categorical(lengths)];
    const Edge& e = graph_->edge(iv.edge);
    particles.edge[i] = iv.edge;
    particles.offset[i] = rng.Uniform(iv.lo, iv.hi);
    particles.heading[i] = rng.Bernoulli(0.5) ? e.a : e.b;
    particles.speed[i] = motion_.SampleSpeed(rng);
  }
  return particles;
}

void ParticleFilter::Advance(ParticleSoA* particles,
                             const DataCollector::ObjectHistory& history,
                             int64_t from_time, int64_t to_time, int* seconds,
                             Rng& rng) const {
  // Readings cursor. Entries are ascending by time (the ObjectHistory
  // contract), so one pass serves the whole call: `next` starts at the
  // first entry past from_time and the loop below consumes the entries of
  // each second as it reaches it.
  const std::vector<AggregatedEntry>& entries = history.entries;
  IPQS_DCHECK(std::is_sorted(
      entries.begin(), entries.end(),
      [](const AggregatedEntry& a, const AggregatedEntry& b) {
        return a.time < b.time;
      }));
  auto next = std::upper_bound(
      entries.begin(), entries.end(), from_time,
      [](int64_t t, const AggregatedEntry& e) { return t < e.time; });
  // The newest observation at or before from_time anchors the gap clock;
  // computed from the history (not from from_time) so a cache Resume sees
  // the same gap a full Run would.
  int64_t last_obs =
      next == entries.begin() ? from_time : std::prev(next)->time;

  // The stages work in place on the caller's arrays. The scratch buffers
  // are thread_local so the hot loop allocates nothing after warm-up; safe
  // because Advance is non-reentrant and all randomness flows through the
  // explicit `rng`.
  thread_local FilterArena arena;
  thread_local std::vector<uint8_t> trust_mask;
  ParticleSoA& soa = *particles;
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

    // Update: reweight against the observation of second tj, if any. When
    // several entries share the second (two devices reporting within it),
    // the later one decides.
    const auto first_at_tj = next;
    while (next != entries.end() && next->time == tj) {
      ++next;
    }
    bool reweighted = false;
    if (next != first_at_tj) {
      const ReaderId detected = std::prev(next)->reader;
      last_obs = tj;
      const size_t n = soa.size();
      arena.x.resize(n);
      arena.y.resize(n);
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      const size_t consistent = measurement_.WeightOnDetection(
          *deployment_, detected, n, arena.x.data(), arena.y.data(),
          soa.weight.data());
      if (consistent == 0) {
        // The whole cloud contradicts a trustworthy observation (sample
        // impoverishment, or the object did something the motion model
        // finds very unlikely). Re-seed at the detecting reader — exactly
        // the Algorithm 2 initialization, applied mid-stream. (The
        // scaled weights are discarded with the rest of the old cloud.)
        soa = InitializeAtReader(detected, rng);
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
