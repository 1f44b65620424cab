#include "persist/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "persist/checksum.h"
#include "persist/io_util.h"
#include "persist/serde.h"

namespace ipqs {
namespace persist {
namespace {

void PutEntries(BufferWriter& w, const std::vector<AggregatedEntry>& entries) {
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const AggregatedEntry& e : entries) {
    w.PutI64(e.time);
    w.PutI32(e.reader);
  }
}

// Reads a count-prefixed entry list. Rejects a list that goes back in
// time: every reader of a restored history (the filter's readings cursor,
// the particle cache's stale-coast check, HistoryStore::SnapshotAt)
// binary-searches or walks it in time order. Equal times from different
// readers are valid.
bool GetEntries(BufferReader& r, std::vector<AggregatedEntry>* entries) {
  const uint32_t n = r.GetU32();
  // Guard against a corrupt count asking for more entries than the buffer
  // could possibly hold (12 bytes each) before we try to allocate it.
  if (!r.ok() || static_cast<uint64_t>(n) * 12 > r.remaining()) {
    return false;
  }
  entries->resize(n);
  for (size_t i = 0; i < entries->size(); ++i) {
    AggregatedEntry& e = (*entries)[i];
    e.time = r.GetI64();
    e.reader = r.GetI32();
    if (i > 0 && e.time < (*entries)[i - 1].time) {
      return false;
    }
  }
  return r.ok();
}

void PutReading(BufferWriter& w, const RawReading& reading) {
  w.PutI32(reading.object);
  w.PutI32(reading.reader);
  w.PutI64(reading.time);
}

RawReading GetReading(BufferReader& r) {
  RawReading reading;
  reading.object = r.GetI32();
  reading.reader = r.GetI32();
  reading.time = r.GetI64();
  return reading;
}

// Particle-major: each particle's six fields in turn, read from and
// written to the state's arrays.
void PutFilterResult(BufferWriter& w, const FilterResult& state) {
  const ParticleSoA& p = state.particles;
  w.PutI64(state.time);
  w.PutI32(state.seconds_processed);
  w.PutU32(static_cast<uint32_t>(p.size()));
  for (size_t i = 0; i < p.size(); ++i) {
    w.PutI32(p.edge[i]);
    w.PutDouble(p.offset[i]);
    w.PutI32(p.heading[i]);
    w.PutDouble(p.speed[i]);
    w.PutDouble(p.weight[i]);
    w.PutBool(p.in_room[i] != 0);
  }
}

bool GetFilterResult(BufferReader& r, FilterResult* state) {
  state->time = r.GetI64();
  state->seconds_processed = r.GetI32();
  const uint32_t n = r.GetU32();
  if (!r.ok() || static_cast<uint64_t>(n) * 33 > r.remaining()) {
    return false;
  }
  ParticleSoA& p = state->particles;
  p.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    p.edge[i] = r.GetI32();
    p.offset[i] = r.GetDouble();
    p.heading[i] = r.GetI32();
    p.speed[i] = r.GetDouble();
    p.weight[i] = r.GetDouble();
    p.in_room[i] = r.GetBool() ? 1 : 0;
  }
  return r.ok();
}

std::string SerializePayload(const SnapshotData& data) {
  BufferWriter w;
  w.PutI64(data.now);

  w.PutU32(static_cast<uint32_t>(data.collector.histories.size()));
  for (const auto& [object, history] : data.collector.histories) {
    w.PutI32(object);
    w.PutI32(history.current_device);
    w.PutI32(history.previous_device);
    PutEntries(w, history.entries);
  }
  w.PutU32(static_cast<uint32_t>(data.collector.staged.size()));
  for (const RawReading& reading : data.collector.staged) {
    PutReading(w, reading);
  }
  w.PutI64(data.collector.max_seen_time);
  w.PutI64(data.collector.watermark);
  w.PutI64(data.collector.ingest.reordered);
  w.PutI64(data.collector.ingest.duplicates_dropped);
  w.PutI64(data.collector.ingest.late_dropped);

  w.PutU32(static_cast<uint32_t>(data.history.logs.size()));
  for (const auto& [object, log] : data.history.logs) {
    w.PutI32(object);
    PutEntries(w, log);
  }

  w.PutU32(static_cast<uint32_t>(data.pf_cache.size()));
  for (const ParticleCache::PersistedEntry& e : data.pf_cache) {
    w.PutI32(e.object);
    w.PutI32(e.device);
    w.PutI64(e.last_reading);
    PutFilterResult(w, e.state);
  }
  return w.Take();
}

StatusOr<SnapshotData> ParsePayload(std::string_view payload) {
  BufferReader r(payload);
  SnapshotData data;
  data.now = r.GetI64();

  const uint32_t num_histories = r.GetU32();
  for (uint32_t i = 0; r.ok() && i < num_histories; ++i) {
    std::pair<ObjectId, DataCollector::ObjectHistory> item;
    item.first = r.GetI32();
    item.second.current_device = r.GetI32();
    item.second.previous_device = r.GetI32();
    if (!GetEntries(r, &item.second.entries)) {
      return Status::InvalidArgument("snapshot: malformed collector history");
    }
    data.collector.histories.push_back(std::move(item));
  }
  const uint32_t num_staged = r.GetU32();
  if (!r.ok() || static_cast<uint64_t>(num_staged) * 16 > r.remaining()) {
    return Status::InvalidArgument("snapshot: malformed staged readings");
  }
  for (uint32_t i = 0; i < num_staged; ++i) {
    data.collector.staged.push_back(GetReading(r));
  }
  data.collector.max_seen_time = r.GetI64();
  data.collector.watermark = r.GetI64();
  data.collector.ingest.reordered = r.GetI64();
  data.collector.ingest.duplicates_dropped = r.GetI64();
  data.collector.ingest.late_dropped = r.GetI64();

  const uint32_t num_logs = r.GetU32();
  for (uint32_t i = 0; r.ok() && i < num_logs; ++i) {
    std::pair<ObjectId, std::vector<AggregatedEntry>> item;
    item.first = r.GetI32();
    if (!GetEntries(r, &item.second)) {
      return Status::InvalidArgument("snapshot: malformed history-store log");
    }
    data.history.logs.push_back(std::move(item));
  }

  const uint32_t num_cached = r.GetU32();
  for (uint32_t i = 0; r.ok() && i < num_cached; ++i) {
    ParticleCache::PersistedEntry e;
    e.object = r.GetI32();
    e.device = r.GetI32();
    e.last_reading = r.GetI64();
    if (!GetFilterResult(r, &e.state)) {
      return Status::InvalidArgument("snapshot: malformed cached state");
    }
    data.pf_cache.push_back(std::move(e));
  }

  if (!r.ok()) {
    return Status::InvalidArgument("snapshot: payload ends mid-field");
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes after payload");
  }
  return data;
}

}  // namespace

std::string SnapshotWriter::Serialize(const SnapshotData& data) {
  const std::string payload = SerializePayload(data);
  BufferWriter header;
  header.PutBytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  header.PutU32(kSnapshotVersion);
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload));
  std::string out = header.Take();
  out += payload;
  return out;
}

Status SnapshotWriter::Write(const std::string& path,
                             const SnapshotData& data) {
  return AtomicWriteFile(path, Serialize(data));
}

StatusOr<SnapshotData> SnapshotReader::Parse(std::string_view bytes) {
  constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("snapshot: short header");
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  BufferReader header(bytes.substr(kSnapshotMagic.size()));
  const uint32_t version = header.GetU32();
  const uint64_t payload_len = header.GetU64();
  const uint32_t expected_crc = header.GetU32();
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(version));
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != payload_len) {
    return Status::InvalidArgument("snapshot: truncated payload (" +
                                   std::to_string(payload.size()) + " of " +
                                   std::to_string(payload_len) + " bytes)");
  }
  if (Crc32(payload) != expected_crc) {
    return Status::InvalidArgument("snapshot: checksum mismatch");
  }
  return ParsePayload(payload);
}

StatusOr<SnapshotData> SnapshotReader::Read(const std::string& path) {
  std::string bytes;
  IPQS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return Parse(bytes);
}

}  // namespace persist
}  // namespace ipqs
