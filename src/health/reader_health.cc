#include "health/reader_health.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ipqs {

std::string_view ToString(ReaderHealth health) {
  switch (health) {
    case ReaderHealth::kHealthy:
      return "healthy";
    case ReaderHealth::kSuspect:
      return "suspect";
    case ReaderHealth::kDead:
      return "dead";
    case ReaderHealth::kProbation:
      return "probation";
  }
  return "unknown";
}

ReaderHealthMonitor::ReaderHealthMonitor(const ReaderHealthConfig& config,
                                         const DataCollector* collector,
                                         int num_readers)
    : config_(config), collector_(collector) {
  IPQS_CHECK(collector != nullptr);
  IPQS_CHECK_GE(num_readers, 0);
  IPQS_CHECK_GE(config.warmup_seconds, 1);
  IPQS_CHECK_GE(config.suspect_after_seconds, 1);
  IPQS_CHECK_GT(config.dead_after_seconds, config.suspect_after_seconds);
  IPQS_CHECK_GE(config.probation_seconds, 1);
  readers_.resize(static_cast<size_t>(num_readers));
  view_ = ReaderHealthView(
      std::vector<ReaderHealth>(readers_.size(), ReaderHealth::kHealthy));
}

double ReaderHealthMonitor::BaselineRate(ReaderId reader) const {
  return reader >= 0 && static_cast<size_t>(reader) < readers_.size()
             ? readers_[reader].baseline_rate
             : 0.0;
}

int ReaderHealthMonitor::SuspectWindow(ReaderId reader) const {
  return reader >= 0 && static_cast<size_t>(reader) < readers_.size()
             ? readers_[reader].suspect_window
             : 0;
}

void ReaderHealthMonitor::Transition(ReaderState* state, ReaderId reader,
                                     int64_t now, ReaderHealth to) {
  const ReaderHealth from = state->health;
  if (from == to) {
    return;
  }
  state->health = to;
  transition_log_.push_back({transition_end_, now, reader, from, to});
  ++transition_end_;
  while (transition_log_.size() > kTransitionLogCapacity) {
    transition_log_.pop_front();
    ++transition_begin_;
  }
  if (metrics_.transitions != nullptr) {
    metrics_.transitions->Increment();
  }
  switch (to) {
    case ReaderHealth::kSuspect:
      ++stats_.suspect;
      if (metrics_.suspect_transitions != nullptr) {
        metrics_.suspect_transitions->Increment();
      }
      break;
    case ReaderHealth::kDead:
      ++stats_.dead;
      if (metrics_.dead_transitions != nullptr) {
        metrics_.dead_transitions->Increment();
      }
      break;
    case ReaderHealth::kProbation:
      ++stats_.probation;
      state->active_run = 0;
      break;
    case ReaderHealth::kHealthy:
      ++stats_.recovered;
      if (metrics_.recovered_transitions != nullptr) {
        metrics_.recovered_transitions->Increment();
      }
      break;
  }
}

void ReaderHealthMonitor::Tick(int64_t now) {
  if (!config_.enabled || readers_.empty()) {
    return;
  }
  ++ticks_;
  const bool warming = ticks_ <= config_.warmup_seconds;

  std::vector<ReaderHealth> state(readers_.size());
  int down = 0;
  int degraded = 0;
  for (size_t i = 0; i < readers_.size(); ++i) {
    ReaderState& s = readers_[i];
    const ReaderId reader = static_cast<ReaderId>(i);
    const int64_t count = collector_->ReaderObserved(reader);
    const int64_t delta = count - s.last_count;
    s.last_count = count;
    const int64_t heartbeats = collector_->ReaderHeartbeats(reader);
    const int64_t hb_delta = heartbeats - s.last_heartbeats;
    s.last_heartbeats = heartbeats;
    // A reader is active when it reported anything at all this second —
    // tag readings or a status heartbeat. For heartbeat-capable readers
    // this makes silence unambiguous: an up reader with no tags in range
    // still heartbeats, so a fully silent second means the reader is gone,
    // not that objects wandered off.
    const bool active = delta > 0 || hb_delta > 0;

    if (warming) {
      // Learn the baseline; no verdicts until it is warmed up.
      s.baseline_sum += static_cast<double>(delta);
      s.heartbeat_sum += static_cast<double>(hb_delta);
      s.peak_rate = std::max(s.peak_rate, static_cast<double>(delta));
      if (active) {
        s.warmup_gap = 0;
      } else {
        ++s.warmup_gap;
        s.max_warmup_gap = std::max(s.max_warmup_gap, s.warmup_gap);
      }
      if (ticks_ == config_.warmup_seconds) {
        s.baseline_rate =
            s.baseline_sum / static_cast<double>(config_.warmup_seconds);
        s.heartbeat_capable =
            s.heartbeat_sum / static_cast<double>(config_.warmup_seconds) >=
            config_.min_heartbeat_rate;
        // A gap the reader exhibited while provably healthy is not
        // evidence of death later: widen its window past it. (For a
        // heartbeat-capable reader the warmup gap is the longest keepalive
        // outage it survived — normally zero, leaving the configured
        // minimum.)
        s.suspect_window = std::max(
            config_.suspect_after_seconds,
            static_cast<int>(std::ceil(config_.warmup_gap_slack *
                                       s.max_warmup_gap)) +
                1);
      }
      state[i] = s.health;
      continue;
    }

    s.silent_run = active ? 0 : s.silent_run + 1;
    // A reader below the baseline gate saw (next to) no tags while
    // provably healthy, so it has no burst baseline either: the first
    // ordinary crowd it sees would otherwise read as a ghost flood.
    const double anomaly_threshold =
        config_.ghost_factor *
        std::max(s.peak_rate, config_.min_baseline_rate);
    const bool anomalous = s.baseline_rate >= config_.min_baseline_rate &&
                           static_cast<double>(delta) > anomaly_threshold;
    s.anomaly_run = anomalous ? s.anomaly_run + 1 : 0;

    switch (s.health) {
      case ReaderHealth::kHealthy:
        if (s.anomaly_run >= config_.anomaly_suspect_count) {
          Transition(&s, reader, now, ReaderHealth::kSuspect);
        } else if ((s.heartbeat_capable ||
                    s.baseline_rate >= config_.min_baseline_rate) &&
                   s.silent_run >= s.suspect_window) {
          Transition(&s, reader, now, ReaderHealth::kSuspect);
        }
        break;
      case ReaderHealth::kSuspect:
        if (active && s.anomaly_run == 0) {
          Transition(&s, reader, now, ReaderHealth::kProbation);
        } else if (s.silent_run >= config_.dead_after_seconds) {
          Transition(&s, reader, now, ReaderHealth::kDead);
        }
        break;
      case ReaderHealth::kDead:
        if (active && s.anomaly_run == 0) {
          Transition(&s, reader, now, ReaderHealth::kProbation);
        }
        break;
      case ReaderHealth::kProbation:
        if (s.anomaly_run >= config_.anomaly_suspect_count) {
          Transition(&s, reader, now, ReaderHealth::kSuspect);
        } else if (active) {
          if (++s.active_run >= config_.probation_seconds) {
            Transition(&s, reader, now, ReaderHealth::kHealthy);
          }
        } else {
          s.active_run = 0;
          if (s.silent_run >= s.suspect_window) {
            Transition(&s, reader, now, ReaderHealth::kSuspect);
          }
        }
        break;
    }

    if (s.health == ReaderHealth::kProbation && active &&
        metrics_.probation_reads != nullptr) {
      metrics_.probation_reads->Increment(delta);
    }
    state[i] = s.health;
    down += s.health == ReaderHealth::kSuspect ||
                    s.health == ReaderHealth::kDead
                ? 1
                : 0;
    degraded += s.health == ReaderHealth::kHealthy ? 0 : 1;
  }

  view_ = ReaderHealthView(std::move(state));
  if (metrics_.reader_seconds != nullptr) {
    metrics_.reader_seconds->Increment(
        static_cast<int64_t>(readers_.size()));
  }
  if (metrics_.reader_down_seconds != nullptr && down > 0) {
    metrics_.reader_down_seconds->Increment(down);
  }
  if (metrics_.degraded_readers != nullptr) {
    metrics_.degraded_readers->Set(degraded);
  }
}

uint64_t ReaderHealthMonitor::ReadTransitions(
    uint64_t cursor, std::vector<ReaderHealthTransition>* out,
    bool* lost_sync) const {
  *lost_sync = cursor < transition_begin_;
  for (uint64_t seq = std::max(cursor, transition_begin_);
       seq < transition_end_; ++seq) {
    out->push_back(transition_log_[seq - transition_begin_]);
  }
  return transition_end_;
}

bool HealthSilenceTrust::FillSilenceTrust(int64_t second, size_t num_readers,
                                          uint8_t* mask) const {
  const ReaderHealthView* view =
      monitor_ != nullptr && monitor_->enabled() ? &monitor_->view() : nullptr;
  bool any_untrusted = false;
  for (size_t i = 0; i < num_readers; ++i) {
    const ReaderId reader = static_cast<ReaderId>(i);
    bool trusted = view == nullptr || view->SilenceTrusted(reader);
    if (trusted && collector_ != nullptr &&
        !collector_->ReaderLiveAt(reader, second)) {
      trusted = false;
    }
    mask[i] = trusted ? 1 : 0;
    any_untrusted |= !trusted;
  }
  return any_untrusted;
}

}  // namespace ipqs
