#ifndef IPQS_RFID_DATA_COLLECTOR_H_
#define IPQS_RFID_DATA_COLLECTOR_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "rfid/reader.h"

namespace ipqs {

// Optional observability hooks for a DataCollector; any member may be
// null. Observe() runs on the (single-threaded) ingest path, so these are
// plain counter bumps.
struct CollectorMetrics {
  obs::Counter* readings = nullptr;   // Raw readings ingested.
  obs::Counter* entries = nullptr;    // Aggregated entries appended.
  obs::Counter* handoffs = nullptr;   // Device transitions per object.
  obs::Counter* events = nullptr;     // ENTER/LEAVE events emitted.
  obs::Gauge* objects = nullptr;      // Objects with at least one reading.
  // Ingestion-hardening counters (fault tolerance).
  obs::Counter* reordered = nullptr;           // Out-of-order arrivals fixed
                                               // by the reorder buffer.
  obs::Counter* duplicates_dropped = nullptr;  // Idempotent suppression.
  obs::Counter* late_dropped = nullptr;        // Arrived behind the
                                               // watermark / object clock.
};

// Ingestion-hardening knobs. The zero-value config reproduces the original
// trusting collector byte for byte (readings apply immediately, in arrival
// order).
struct CollectorConfig {
  // With a positive window, arriving readings are staged and applied only
  // once the watermark — the maximum reading timestamp seen so far minus
  // this window — passes them, in (time, reader, object) order. Any
  // delivery reordered by at most this many seconds is repaired exactly;
  // readings arriving behind the watermark are dropped (and counted) so
  // per-object histories stay monotone. The price is that queries do not
  // see the last `reorder_window_seconds` of readings until they flush.
  int reorder_window_seconds = 0;

  // With a positive capacity, every reading that actually mutates an
  // aggregated history is also appended to a bounded change log that
  // downstream consumers (the subscription manager) drain by cursor. 0
  // keeps the log off — ingest behavior is identical either way; the log
  // only records what was applied.
  size_t change_log_capacity = 0;
};

// One applied mutation of an aggregated history: `reader` saw `object` at
// second `time`, and the entry was appended (readings swallowed by the
// duplicate/monotonicity guards never appear here). `handoff` marks a
// device transition, which additionally dropped the aged-out device's
// entries.
struct AppliedChange {
  ObjectId object = kInvalidId;
  ReaderId reader = kInvalidId;
  int64_t time = 0;
  bool handoff = false;
};

// One aggregated detection: `reader` saw the object at least once during
// second `time`.
struct AggregatedEntry {
  int64_t time = 0;
  ReaderId reader = kInvalidId;

  friend bool operator==(const AggregatedEntry&,
                         const AggregatedEntry&) = default;
};

// An ENTER or LEAVE event: the object entered/left the activation range of
// `reader` (LEAVE is emitted lazily, when the next device sees the object).
struct ReaderEvent {
  ObjectId object = kInvalidId;
  ReaderId reader = kInvalidId;
  int64_t time = 0;
  bool enter = true;
};

// Event-driven raw data collector (Section 4.1 of the paper). Aggregates
// raw readings to one entry per second and, per object, retains only the
// readings of the two most recent detecting devices — exactly the window
// the particle filter consumes (snapshot queries need no longer history).
//
// Hardened against a faulty delivery layer (src/faults/): an optional
// reorder buffer repairs bounded out-of-order delivery, exact duplicates
// are suppressed idempotently, and a monotonicity guard drops (and counts)
// any reading that would rewind an object's aggregated history instead of
// corrupting it or aborting.
class DataCollector {
 public:
  struct ObjectHistory {
    // Aggregated entries, ascending by time, covering at most the two most
    // recent detecting devices.
    std::vector<AggregatedEntry> entries;
    ReaderId current_device = kInvalidId;
    ReaderId previous_device = kInvalidId;

    // Both require a non-empty history: an object with no detections has
    // no first/last reading (callers must check before asking).
    int64_t FirstTime() const {
      IPQS_CHECK(!entries.empty());
      return entries.front().time;
    }
    int64_t LastTime() const {
      IPQS_CHECK(!entries.empty());
      return entries.back().time;
    }

    friend bool operator==(const ObjectHistory&, const ObjectHistory&) = default;
  };

  // Plain tallies of the hardening guards, available without a metrics
  // registry (mirrored into CollectorMetrics when one is wired).
  struct IngestStats {
    int64_t reordered = 0;
    int64_t duplicates_dropped = 0;
    int64_t late_dropped = 0;

    friend bool operator==(const IngestStats&, const IngestStats&) = default;
  };

  DataCollector() = default;
  explicit DataCollector(const CollectorConfig& config) : config_(config) {}

  // Installs observability hooks; call before the ingest loop starts.
  void SetMetrics(const CollectorMetrics& metrics) { metrics_ = metrics; }

  // Reconfigures the hardening knobs; call before the ingest loop starts.
  void SetConfig(const CollectorConfig& config) { config_ = config; }
  const CollectorConfig& config() const { return config_; }

  // Ingests one raw reading. With no reorder buffer configured it applies
  // immediately; otherwise it is staged until the watermark passes it (see
  // CollectorConfig). Readings that would rewind an object's history are
  // dropped and counted, never applied.
  void Observe(const RawReading& reading);

  // Releases every staged reading with time <= now - reorder_window (in
  // canonical order) into the aggregated histories. Call once per
  // simulation second, after the second's arrivals. No-op without a
  // reorder buffer.
  void Flush(int64_t now);

  // Drains the reorder buffer completely (end of stream / shutdown).
  void FlushAll();

  // Readings currently staged in the reorder buffer.
  size_t staged_size() const { return staged_.size(); }

  // The reorder buffer's current watermark: every released reading has
  // passed it, arrivals at or behind it are late. INT64_MIN until the
  // first reading arrives (and always, with no reorder buffer configured).
  int64_t watermark() const { return watermark_; }

  const IngestStats& ingest_stats() const { return ingest_stats_; }

  // --- Per-reader ingest statistics (reader health) ---
  // Cumulative raw readings observed per reader (Observe-time: before the
  // reorder buffer, duplicate suppression, or monotonicity guards — the
  // health monitor wants the stream as the reader emitted it, ghosts and
  // duplicates included). Indexed by ReaderId; grows on demand, so a
  // reader that never reported has either no slot or a zero.
  const std::vector<int64_t>& reader_observed() const {
    return reader_observed_;
  }
  int64_t ReaderObserved(ReaderId reader) const {
    return reader >= 0 &&
                   static_cast<size_t>(reader) < reader_observed_.size()
               ? reader_observed_[reader]
               : 0;
  }

  // Reader status heartbeat (LLRP-style keepalive): a reader that is up
  // reports once per second whether or not any tag was in range. A down
  // reader reports nothing — so a missed heartbeat, unlike tag-read
  // silence, is unambiguous evidence of failure. Heartbeats also mark the
  // per-second liveness ring: an alive-but-tagless reader's silence is
  // informative for negative-information weighting. Like reader_observed,
  // this channel is process-local (not part of PersistedState).
  void NoteReaderHeartbeat(ReaderId reader, int64_t time);
  int64_t ReaderHeartbeats(ReaderId reader) const {
    return reader >= 0 &&
                   static_cast<size_t>(reader) < reader_heartbeats_.size()
               ? reader_heartbeats_[reader]
               : 0;
  }

  // True when `reader` produced at least one raw reading or heartbeat
  // timestamped `second`. Retention is bounded (kLivenessWindowSeconds
  // behind the newest observed timestamp); seconds older than the window
  // report true — unknown history is assumed live, which reproduces the
  // legacy negative-information weighting for deep replays. This state is
  // process-local: it is NOT part of PersistedState (the serde format is
  // frozen). RestoreState empties it, so a restored collector reports
  // false — silence uninformative — for every second until re-marked
  // (Simulation recovery re-marks the retained window; see
  // MarkReadersLive).
  bool ReaderLiveAt(ReaderId reader, int64_t second) const;

  // Marks `readers` live at `second` without counting heartbeats: recovery
  // re-marks the seconds a restored collector lost with the heartbeats the
  // live process noted, leaving the cumulative counters the health monitor
  // diffs untouched.
  void MarkReadersLive(std::span<const ReaderId> readers, int64_t second);

  // Liveness retention window (seconds behind the newest observed
  // timestamp). Generously covers max_coast_seconds-deep replays.
  static constexpr int64_t kLivenessWindowSeconds = 4096;

  // History for `object`; nullptr when the object has never been detected.
  const ObjectHistory* History(ObjectId object) const;

  // Most recent detection of `object`, if any.
  std::optional<AggregatedEntry> LastReading(ObjectId object) const;

  // All objects with at least one detection.
  std::vector<ObjectId> KnownObjects() const;

  // Changes whenever anything a query reads changes: an applied entry, a
  // reader newly marked live at some second, or RestoreState. Duplicates
  // and repeated liveness marks leave it alone. Readers that derive state
  // from the collector (QueryEngine's object view and its APtoObjHT memo)
  // key it on this; it never repeats within one collector's lifetime.
  uint64_t version() const { return version_; }

  // ENTER/LEAVE event log (recorded only when enabled; off by default to
  // keep long simulations lean).
  void set_record_events(bool record) { record_events_ = record; }
  const std::vector<ReaderEvent>& events() const { return events_; }

  // Total aggregated entries currently retained (storage metric).
  size_t TotalEntriesRetained() const;

  // --- Change log (multi-consumer, cursor-based) ---
  bool change_log_enabled() const { return config_.change_log_capacity > 0; }
  // Sequence number one past the newest logged change. A fresh consumer
  // starts its cursor here to see only future changes.
  uint64_t change_log_end() const { return change_end_; }
  // Appends every change with sequence >= cursor to `out` and returns the
  // new cursor (== change_log_end()). If the ring overwrote changes the
  // cursor had not seen (consumer fell behind capacity) or state was
  // restored wholesale, `*lost_sync` is set and the consumer must treat
  // everything as potentially changed.
  uint64_t ReadChanges(uint64_t cursor, std::vector<AppliedChange>* out,
                       bool* lost_sync) const;

  // The complete mutable state of the collector, in a deterministic order
  // (histories ascending by object), for the persistence layer
  // (src/persist/). Config and metrics hooks are NOT part of the state:
  // they belong to the process, not to the data.
  struct PersistedState {
    std::vector<std::pair<ObjectId, ObjectHistory>> histories;
    std::vector<RawReading> staged;
    int64_t max_seen_time = std::numeric_limits<int64_t>::min();
    int64_t watermark = std::numeric_limits<int64_t>::min();
    IngestStats ingest;

    friend bool operator==(const PersistedState&,
                           const PersistedState&) = default;
  };
  PersistedState ExportState() const;
  // Replaces the collector's state wholesale (recovery). The configured
  // reorder window and metrics hooks are kept as-is.
  void RestoreState(PersistedState state);

 private:
  // Applies one reading to the aggregated histories (the original
  // event-driven path, plus the monotonicity and duplicate guards).
  void Ingest(const RawReading& reading);

  // Releases staged readings with time <= `up_to` in canonical order.
  void FlushStagedUpTo(int64_t up_to);

  CollectorConfig config_;
  std::unordered_map<ObjectId, ObjectHistory> histories_;
  uint64_t version_ = 0;
  std::vector<ReaderEvent> events_;
  bool record_events_ = false;
  CollectorMetrics metrics_;
  IngestStats ingest_stats_;

  // Change log ring: change_begin_/change_end_ are the sequence numbers of
  // the oldest retained / one-past-newest change. RestoreState bumps
  // change_begin_ past change_end_'s old value so every consumer observes
  // a lost_sync (the restored histories may differ arbitrarily).
  std::deque<AppliedChange> change_log_;
  uint64_t change_begin_ = 0;
  uint64_t change_end_ = 0;

  // Reorder buffer state: staged readings, the newest timestamp seen, and
  // the watermark every released reading has passed (arrivals at or behind
  // it are late and dropped).
  std::vector<RawReading> staged_;
  int64_t max_seen_time_ = std::numeric_limits<int64_t>::min();
  int64_t watermark_ = std::numeric_limits<int64_t>::min();

  // Per-reader health inputs (see reader_observed / ReaderLiveAt). The
  // liveness ring maps second -> per-reader seen flags, pruned to
  // kLivenessWindowSeconds behind live_max_.
  void NoteReaderObserved(ReaderId reader, int64_t time);
  std::vector<int64_t> reader_observed_;
  std::vector<int64_t> reader_heartbeats_;
  std::map<int64_t, std::vector<uint8_t>> live_by_second_;
  int64_t live_max_ = std::numeric_limits<int64_t>::min();
};

}  // namespace ipqs

#endif  // IPQS_RFID_DATA_COLLECTOR_H_
