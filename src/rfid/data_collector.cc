#include "rfid/data_collector.h"

#include <algorithm>

#include "common/check.h"

namespace ipqs {

void DataCollector::Observe(const RawReading& reading) {
  IPQS_CHECK_NE(reading.object, kInvalidId);
  IPQS_CHECK_NE(reading.reader, kInvalidId);
  if (metrics_.readings != nullptr) {
    metrics_.readings->Increment();
  }
  NoteReaderObserved(reading.reader, reading.time);

  if (config_.reorder_window_seconds <= 0) {
    Ingest(reading);
    return;
  }

  // Reorder buffer: stage until the watermark passes the reading. Anything
  // at or behind the watermark missed its window — dropping it (counted)
  // is the only way to keep already-released history monotone.
  if (reading.time <= watermark_) {
    ++ingest_stats_.late_dropped;
    if (metrics_.late_dropped != nullptr) {
      metrics_.late_dropped->Increment();
    }
    return;
  }
  if (max_seen_time_ != std::numeric_limits<int64_t>::min() &&
      reading.time < max_seen_time_) {
    // Arrived behind a newer reading: the buffer will repair the order.
    ++ingest_stats_.reordered;
    if (metrics_.reordered != nullptr) {
      metrics_.reordered->Increment();
    }
  }
  max_seen_time_ = std::max(max_seen_time_, reading.time);
  staged_.push_back(reading);
}

void DataCollector::NoteReaderObserved(ReaderId reader, int64_t time) {
  if (reader >= static_cast<ReaderId>(reader_observed_.size())) {
    reader_observed_.resize(static_cast<size_t>(reader) + 1, 0);
  }
  ++reader_observed_[reader];
  MarkReadersLive({&reader, 1}, time);
}

void DataCollector::NoteReaderHeartbeat(ReaderId reader, int64_t time) {
  IPQS_CHECK_GE(reader, 0);
  if (reader >= static_cast<ReaderId>(reader_heartbeats_.size())) {
    reader_heartbeats_.resize(static_cast<size_t>(reader) + 1, 0);
  }
  ++reader_heartbeats_[reader];
  MarkReadersLive({&reader, 1}, time);
}

void DataCollector::MarkReadersLive(std::span<const ReaderId> readers,
                                    int64_t second) {
  std::vector<uint8_t>& live = live_by_second_[second];
  // The version moves only when ReaderLiveAt can answer differently: a
  // reader newly live at `second`, or the retention window sliding.
  bool changed = second > live_max_;
  for (ReaderId reader : readers) {
    IPQS_CHECK_GE(reader, 0);
    if (static_cast<size_t>(reader) >= live.size()) {
      live.resize(static_cast<size_t>(reader) + 1, 0);
    }
    changed |= live[reader] == 0;
    live[reader] = 1;
  }
  if (changed) {
    ++version_;
  }
  live_max_ = std::max(live_max_, second);
  while (!live_by_second_.empty() &&
         live_by_second_.begin()->first < live_max_ - kLivenessWindowSeconds) {
    live_by_second_.erase(live_by_second_.begin());
  }
}

bool DataCollector::ReaderLiveAt(ReaderId reader, int64_t second) const {
  if (live_max_ != std::numeric_limits<int64_t>::min() &&
      second < live_max_ - kLivenessWindowSeconds) {
    return true;  // Outside the retention window: unknown, assume live.
  }
  const auto it = live_by_second_.find(second);
  return it != live_by_second_.end() && reader >= 0 &&
         static_cast<size_t>(reader) < it->second.size() &&
         it->second[reader] != 0;
}

void DataCollector::Flush(int64_t now) {
  if (config_.reorder_window_seconds <= 0) {
    return;
  }
  FlushStagedUpTo(now - config_.reorder_window_seconds);
}

void DataCollector::FlushAll() {
  FlushStagedUpTo(std::numeric_limits<int64_t>::max());
}

void DataCollector::FlushStagedUpTo(int64_t up_to) {
  if (up_to <= watermark_) {
    return;  // Watermark never regresses.
  }
  // Split off everything due, sort it into canonical (time, reader,
  // object) order, suppress exact duplicates, and apply.
  auto due_end = std::stable_partition(
      staged_.begin(), staged_.end(),
      [up_to](const RawReading& r) { return r.time <= up_to; });
  std::vector<RawReading> due(staged_.begin(), due_end);
  staged_.erase(staged_.begin(), due_end);
  std::sort(due.begin(), due.end(),
            [](const RawReading& a, const RawReading& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.reader != b.reader) return a.reader < b.reader;
              return a.object < b.object;
            });
  for (size_t i = 0; i < due.size(); ++i) {
    if (i > 0 && due[i].time == due[i - 1].time &&
        due[i].reader == due[i - 1].reader &&
        due[i].object == due[i - 1].object) {
      // Idempotent duplicate suppression: a re-delivered reading is
      // byte-identical to one already applied this flush.
      ++ingest_stats_.duplicates_dropped;
      if (metrics_.duplicates_dropped != nullptr) {
        metrics_.duplicates_dropped->Increment();
      }
      continue;
    }
    Ingest(due[i]);
  }
  watermark_ = up_to;
}

void DataCollector::Ingest(const RawReading& reading) {
  // Monotonicity guard: a reading that would rewind this object's
  // aggregated history (late delivery beyond the reorder window, or a
  // skewed clock) is dropped and counted — applying it would corrupt the
  // time-ordered entry list every downstream consumer relies on.
  const auto existing = histories_.find(reading.object);
  if (existing != histories_.end() && !existing->second.entries.empty() &&
      reading.time < existing->second.entries.back().time) {
    ++ingest_stats_.late_dropped;
    if (metrics_.late_dropped != nullptr) {
      metrics_.late_dropped->Increment();
    }
    return;
  }

  const bool new_object = existing == histories_.end();
  ObjectHistory& h = histories_[reading.object];
  if (new_object && metrics_.objects != nullptr) {
    metrics_.objects->Set(static_cast<int64_t>(histories_.size()));
  }

  // Aggregation: at most one entry per (second, reader). Checked before
  // the hand-off branch so a re-delivered duplicate of the newest entry is
  // recognized as such instead of toggling devices.
  if (!h.entries.empty() && h.entries.back().time == reading.time &&
      h.entries.back().reader == reading.reader) {
    ++ingest_stats_.duplicates_dropped;
    if (metrics_.duplicates_dropped != nullptr) {
      metrics_.duplicates_dropped->Increment();
    }
    return;
  }

  const bool handoff = reading.reader != h.current_device;
  if (handoff) {
    // Device hand-off: LEAVE the old device, ENTER the new one, and drop
    // entries from the device that just aged out of the 2-device window.
    if (metrics_.handoffs != nullptr && h.current_device != kInvalidId) {
      metrics_.handoffs->Increment();
    }
    if (record_events_ && h.current_device != kInvalidId) {
      events_.push_back({reading.object, h.current_device,
                         h.entries.back().time, /*enter=*/false});
      if (metrics_.events != nullptr) {
        metrics_.events->Increment();
      }
    }
    if (record_events_) {
      events_.push_back(
          {reading.object, reading.reader, reading.time, /*enter=*/true});
      if (metrics_.events != nullptr) {
        metrics_.events->Increment();
      }
    }
    if (h.previous_device != kInvalidId) {
      const ReaderId drop = h.previous_device;
      std::erase_if(h.entries, [drop](const AggregatedEntry& e) {
        return e.reader == drop;
      });
    }
    h.previous_device = h.current_device;
    h.current_device = reading.reader;
  }

  h.entries.push_back({reading.time, reading.reader});
  ++version_;
  if (metrics_.entries != nullptr) {
    metrics_.entries->Increment();
  }
  if (config_.change_log_capacity > 0) {
    change_log_.push_back(
        {reading.object, reading.reader, reading.time, handoff});
    ++change_end_;
    while (change_log_.size() > config_.change_log_capacity) {
      change_log_.pop_front();
      ++change_begin_;
    }
  }
}

uint64_t DataCollector::ReadChanges(uint64_t cursor,
                                    std::vector<AppliedChange>* out,
                                    bool* lost_sync) const {
  *lost_sync = cursor < change_begin_;
  for (uint64_t seq = std::max(cursor, change_begin_); seq < change_end_;
       ++seq) {
    out->push_back(change_log_[seq - change_begin_]);
  }
  return change_end_;
}

const DataCollector::ObjectHistory* DataCollector::History(
    ObjectId object) const {
  const auto it = histories_.find(object);
  return it == histories_.end() ? nullptr : &it->second;
}

std::optional<AggregatedEntry> DataCollector::LastReading(
    ObjectId object) const {
  const ObjectHistory* h = History(object);
  if (h == nullptr || h->entries.empty()) {
    return std::nullopt;
  }
  return h->entries.back();
}

std::vector<ObjectId> DataCollector::KnownObjects() const {
  std::vector<ObjectId> out;
  out.reserve(histories_.size());
  for (const auto& [id, _] : histories_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

DataCollector::PersistedState DataCollector::ExportState() const {
  PersistedState state;
  state.histories.reserve(histories_.size());
  for (const auto& [id, history] : histories_) {
    state.histories.emplace_back(id, history);
  }
  std::sort(state.histories.begin(), state.histories.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  state.staged = staged_;
  state.max_seen_time = max_seen_time_;
  state.watermark = watermark_;
  state.ingest = ingest_stats_;
  return state;
}

void DataCollector::RestoreState(PersistedState state) {
  histories_.clear();
  for (auto& [id, history] : state.histories) {
    histories_.emplace(id, std::move(history));
  }
  staged_ = std::move(state.staged);
  max_seen_time_ = state.max_seen_time;
  watermark_ = state.watermark;
  ingest_stats_ = state.ingest;
  // The restored histories can differ arbitrarily from what consumers have
  // seen: drop the log and advance change_begin_ past every outstanding
  // cursor so each consumer observes a lost_sync on its next read.
  change_log_.clear();
  change_begin_ = ++change_end_;
  ++version_;
  // Per-reader health inputs are process-local (the serde format is
  // frozen): reset them so a recovered collector re-warms from scratch.
  reader_observed_.clear();
  live_by_second_.clear();
  live_max_ = std::numeric_limits<int64_t>::min();
  if (metrics_.objects != nullptr) {
    metrics_.objects->Set(static_cast<int64_t>(histories_.size()));
  }
}

size_t DataCollector::TotalEntriesRetained() const {
  size_t total = 0;
  for (const auto& [_, h] : histories_) {
    total += h.entries.size();
  }
  return total;
}

}  // namespace ipqs
