#ifndef IPQS_PERSIST_SNAPSHOT_H_
#define IPQS_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "filter/particle_cache.h"
#include "rfid/data_collector.h"
#include "rfid/history_store.h"

namespace ipqs {
namespace persist {

// On-disk snapshot format (versioned, checksummed):
//
//   bytes 0..7   magic "IPQSSNAP"
//   bytes 8..11  format version (u32 LE); current version is 1
//   bytes 12..19 payload length (u64 LE)
//   bytes 20..23 CRC-32 of the payload (u32 LE)
//   bytes 24..   payload (serde.h little-endian encoding of SnapshotData)
//
// Version history:
//   v1: clock + DataCollector state + HistoryStore state + per-object
//       cached FilterStates of the particle-filter engine.
inline constexpr std::string_view kSnapshotMagic = "IPQSSNAP";
inline constexpr uint32_t kSnapshotVersion = 1;

// Everything the serving side needs to answer queries: the aggregated
// two-device histories (collector), the long-horizon reading log (history
// store), and the cached particle states with their resume keys. Because
// inference is a pure function of (engine seed, history, now), restoring
// this state reproduces query answers byte for byte.
struct SnapshotData {
  int64_t now = 0;  // Simulation second the state is consistent as of.
  DataCollector::PersistedState collector;
  HistoryStore::PersistedState history;
  std::vector<ParticleCache::PersistedEntry> pf_cache;

  friend bool operator==(const SnapshotData&, const SnapshotData&) = default;
};

class SnapshotWriter {
 public:
  // Serializes, checksums, and atomically replaces `path` (temp file +
  // rename, fsync'd), so a crash mid-write never leaves a half-written
  // snapshot under the final name.
  static Status Write(const std::string& path, const SnapshotData& data);

  // The exact bytes Write stores (exposed for golden-format tests).
  static std::string Serialize(const SnapshotData& data);
};

class SnapshotReader {
 public:
  // Loads and validates a snapshot file. Any defect — missing file, short
  // header, wrong magic, unknown version, truncated payload, checksum
  // mismatch, malformed payload (including a collector history or
  // history-store log that goes back in time) — comes back as a Status
  // error; this function never aborts, so recovery can skip to an older
  // snapshot.
  static StatusOr<SnapshotData> Read(const std::string& path);

  static StatusOr<SnapshotData> Parse(std::string_view bytes);
};

}  // namespace persist
}  // namespace ipqs

#endif  // IPQS_PERSIST_SNAPSHOT_H_
