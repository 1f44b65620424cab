#ifndef IPQS_HEALTH_READER_HEALTH_H_
#define IPQS_HEALTH_READER_HEALTH_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "filter/particle_filter.h"
#include "obs/metrics.h"
#include "rfid/data_collector.h"
#include "rfid/reader.h"

namespace ipqs {

// Per-reader health verdict. The hysteresis cycle is
//   healthy -> suspect -> dead -> probation -> healthy
// with suspect -> probation (early recovery) and probation -> suspect
// (relapse) shortcuts. Suspect and dead silence is treated as
// uninformative by the measurement model; probation readings are accepted
// but flagged (health.probation_reads).
enum class ReaderHealth : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kProbation = 3,
};

std::string_view ToString(ReaderHealth health);

// Detection/recovery windows for the monitor. The zero-value `enabled`
// keeps the whole subsystem off: no state machine, every reader reported
// healthy, answers byte-identical to a build without the monitor.
struct ReaderHealthConfig {
  bool enabled = false;

  // Baseline learning window: the first `warmup_seconds` ticks only
  // accumulate per-reader reads/sec statistics (mean rate and the longest
  // naturally-occurring silent gap); no transitions fire during warmup.
  int warmup_seconds = 30;

  // A reader whose silent run exceeds its suspect window goes suspect; at
  // `dead_after_seconds` of silence it is declared dead. The per-reader
  // window is max(suspect_after_seconds, warmup_gap_slack * longest warmup
  // gap + 1) so readers with naturally bursty coverage are not
  // false-positived by a gap they exhibited while provably healthy.
  int suspect_after_seconds = 5;
  int dead_after_seconds = 20;
  double warmup_gap_slack = 2.0;

  // Recovery: any reading moves a suspect/dead reader to probation;
  // `probation_seconds` consecutive active seconds promote it to healthy.
  int probation_seconds = 5;

  // Readers whose warmup baseline rate is below this never trip the
  // silence detector or the ghost-burst detector — a reader that was
  // near-silent while healthy gives the monitor no signal to distinguish
  // death from quiet coverage, or a flood from ordinary traffic.
  // Heartbeat-capable readers (below) bypass this gate for silence only:
  // their liveness signal does not depend on tag traffic, but their tag
  // rate still does.
  double min_baseline_rate = 0.2;

  // A reader whose warmup heartbeat rate reaches this is heartbeat-capable:
  // it reports a status frame every second whether or not tags are in
  // range, so "active" means readings OR a heartbeat, silence means
  // neither, and the silence window stays at suspect_after_seconds (a
  // regular keepalive has no natural gaps to widen past). Deployments
  // without a heartbeat channel never reach the threshold and fall back to
  // tag-read statistics alone.
  double min_heartbeat_rate = 0.5;

  // Ghost-burst anomaly: a per-second rate above
  // ghost_factor * max(peak warmup rate, min_baseline_rate) sustained for
  // `anomaly_suspect_count` consecutive seconds marks the reader suspect
  // (its readings are flooding, not informative). The threshold anchors on
  // the busiest second the reader exhibited while provably healthy — not
  // its mean — so naturally bursty coverage (a junction reader seeing a
  // crowd pass) stays inside it. Gated by `min_baseline_rate` (above): a
  // reader that saw no tags during warmup has no burst baseline, and two
  // objects lingering in its range would otherwise trip it.
  double ghost_factor = 8.0;
  int anomaly_suspect_count = 3;
};

// One state-machine transition, sequence-numbered so consumers (the
// subscription manager, run_experiment's summary) can drain incrementally.
struct ReaderHealthTransition {
  uint64_t seq = 0;
  int64_t time = 0;
  ReaderId reader = kInvalidId;
  ReaderHealth from = ReaderHealth::kHealthy;
  ReaderHealth to = ReaderHealth::kHealthy;
};

// Optional observability hooks; any member may be null. Tick() runs on the
// single-threaded simulation step, so these are plain bumps.
struct ReaderHealthMetrics {
  obs::Counter* transitions = nullptr;          // All transitions.
  obs::Counter* suspect_transitions = nullptr;  // -> suspect.
  obs::Counter* dead_transitions = nullptr;     // -> dead.
  obs::Counter* recovered_transitions = nullptr;  // probation -> healthy.
  obs::Counter* probation_reads = nullptr;  // Readings accepted on probation.
  obs::Counter* reader_down_seconds = nullptr;  // SLO bad events.
  obs::Counter* reader_seconds = nullptr;       // SLO total events.
  obs::Gauge* degraded_readers = nullptr;  // Readers not healthy (gauge).
};

// Immutable per-reader health snapshot threaded through the inference
// path. Copyable and cheap; query threads read it between monitor ticks.
class ReaderHealthView {
 public:
  ReaderHealthView() = default;
  explicit ReaderHealthView(std::vector<ReaderHealth> state)
      : state_(std::move(state)) {
    for (const ReaderHealth h : state_) {
      degraded_ += h == ReaderHealth::kHealthy ? 0 : 1;
    }
  }

  size_t num_readers() const { return state_.size(); }
  // Readers the view has no record of (monitor off, or id out of range)
  // report healthy.
  ReaderHealth Of(ReaderId reader) const {
    return reader >= 0 && static_cast<size_t>(reader) < state_.size()
               ? state_[reader]
               : ReaderHealth::kHealthy;
  }
  // Anything but healthy: suspect and dead silence is untrusted, and
  // probation coverage is still flagged on answers until fully recovered.
  bool Degraded(ReaderId reader) const {
    return Of(reader) != ReaderHealth::kHealthy;
  }
  // Whether silence from this reader should still discount particles:
  // healthy and probation readers are reporting, suspect/dead are not.
  bool SilenceTrusted(ReaderId reader) const {
    const ReaderHealth h = Of(reader);
    return h == ReaderHealth::kHealthy || h == ReaderHealth::kProbation;
  }
  bool AnyDegraded() const { return degraded_ > 0; }
  int degraded_count() const { return degraded_; }

 private:
  std::vector<ReaderHealth> state_;
  int degraded_ = 0;
};

// Cumulative transition tallies (for run_experiment's summary line).
struct ReaderHealthStats {
  int64_t suspect = 0;    // -> suspect transitions.
  int64_t dead = 0;       // -> dead transitions.
  int64_t probation = 0;  // -> probation transitions.
  int64_t recovered = 0;  // probation -> healthy transitions.
  int64_t Total() const { return suspect + dead + probation + recovered; }
};

// Deterministic online reader-health monitor. Tick(now) once per simulated
// second (after the second's arrivals) diffs each reader's cumulative
// observed-reading and heartbeat counts from the DataCollector, so every
// transition is a pure function of (seed, readings, now) — byte-identical
// at any thread count, because ticks happen on the single-threaded ingest
// step and queries only read the resulting view. Where a heartbeat channel
// exists, silence (no heartbeat, no readings) is unambiguous; without one,
// silence is only trusted against readers whose warmup traffic made it
// informative.
class ReaderHealthMonitor {
 public:
  ReaderHealthMonitor(const ReaderHealthConfig& config,
                      const DataCollector* collector, int num_readers);

  const ReaderHealthConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // Installs observability hooks; call before the first Tick.
  void SetMetrics(const ReaderHealthMetrics& metrics) { metrics_ = metrics; }

  // Evaluates every reader once for simulated second `now`. Call exactly
  // once per second, in order; with the monitor disabled this is a no-op.
  void Tick(int64_t now);

  ReaderHealth StateOf(ReaderId reader) const { return view_.Of(reader); }
  const ReaderHealthView& view() const { return view_; }
  const ReaderHealthStats& stats() const { return stats_; }

  // Warmed-up baseline reads/sec for `reader` (0 before warmup completes).
  double BaselineRate(ReaderId reader) const;

  // Per-reader effective silence window in seconds — suspect_after widened
  // past the longest warmup gap (0 before warmup completes). Detection
  // latency is measured against this, not the configured minimum.
  int SuspectWindow(ReaderId reader) const;

  // --- Transition log (cursor-based, bounded ring) ---
  // Sequence number one past the newest transition; a fresh consumer
  // starts its cursor here.
  uint64_t transition_end() const { return transition_end_; }
  // Appends every retained transition with seq >= cursor to `out` and
  // returns the new cursor. If the ring overwrote unseen transitions,
  // `*lost_sync` is set and consumers must treat every reader as changed.
  uint64_t ReadTransitions(uint64_t cursor,
                           std::vector<ReaderHealthTransition>* out,
                           bool* lost_sync) const;

 private:
  struct ReaderState {
    ReaderHealth health = ReaderHealth::kHealthy;
    int64_t last_count = 0;      // Collector count at the previous tick.
    int64_t last_heartbeats = 0; // Heartbeat count at the previous tick.
    double baseline_sum = 0.0;   // Readings accumulated during warmup.
    double heartbeat_sum = 0.0;  // Heartbeats accumulated during warmup.
    int max_warmup_gap = 0;    // Longest silent run observed in warmup.
    int warmup_gap = 0;        // Current silent run during warmup.
    double baseline_rate = 0.0;  // Fixed once warmup completes.
    double peak_rate = 0.0;      // Busiest warmup second (anomaly anchor).
    bool heartbeat_capable = false;  // Warmup heartbeat rate reached the
                                     // configured threshold.
    int suspect_window = 0;      // Per-reader effective silence window.
    int silent_run = 0;          // Consecutive inactive seconds.
    int anomaly_run = 0;         // Consecutive ghost-anomalous seconds.
    int active_run = 0;          // Consecutive active seconds (probation).
  };

  void Transition(ReaderState* state, ReaderId reader, int64_t now,
                  ReaderHealth to);

  ReaderHealthConfig config_;
  const DataCollector* collector_;
  ReaderHealthMetrics metrics_;
  std::vector<ReaderState> readers_;
  ReaderHealthView view_;
  ReaderHealthStats stats_;
  int ticks_ = 0;  // Ticks consumed so far (warmup bookkeeping).

  static constexpr size_t kTransitionLogCapacity = 1024;
  std::deque<ReaderHealthTransition> transition_log_;
  uint64_t transition_begin_ = 0;
  uint64_t transition_end_ = 0;
};

// Bridges the health monitor and the collector's per-second liveness gate
// into the filter's negative-information branch: silence from a
// suspect/dead reader, or from any reader during a second where it
// produced zero readings system-wide, is uninformative. Either source may
// be null; with both null every reader is trusted (legacy weighting).
class HealthSilenceTrust final : public SilenceTrustProvider {
 public:
  HealthSilenceTrust(const DataCollector* collector,
                     const ReaderHealthMonitor* monitor)
      : collector_(collector), monitor_(monitor) {}

  bool FillSilenceTrust(int64_t second, size_t num_readers,
                        uint8_t* mask) const override;

 private:
  const DataCollector* collector_;
  const ReaderHealthMonitor* monitor_;
};

}  // namespace ipqs

#endif  // IPQS_HEALTH_READER_HEALTH_H_
