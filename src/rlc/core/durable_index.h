// Durability building blocks shared by the durable ShardedRlcService
// (serve/sharded_service.h; design and formats in docs/durability.md):
// the durability options, the recovery report, and the checksummed
// snapshot file the service writes once per shard (with the shard's
// embedded index) and once for its overlay bookkeeping (no index):
//
//   <dir>/MANIFEST            retained generations, newest first (index_io.h)
//   <dir>/wal-<G>.log         mutation batches acknowledged after gen G (wal.h)
//   <dir>/gen-<G>/{service.snap, shard-<i>.snap}
//
// Snapshot file format, little-endian:
//
//   u64 magic  u32 version  u64 applied_lsn
//   u64 inserted count, count * (u32 src, u32 label, u32 dst, u8 op)
//   u64 removed  count, count * (u32 src, u32 label, u32 dst, u8 op)
//   u64 checksum (FNV-1a over everything after the magic)
//   u8  has_index  [u64 index length, u64 index checksum, index bytes when 1]
//
// The overlay lists are DynamicRlcIndex::inserted_edges()/removed_edges();
// the embedded index already covers them, so loading is RestoreOverlay —
// no maintenance re-run. The index bytes get their own full checksum here
// (the index format only checksums its signature section): any single
// flipped byte in a snapshot is detected, never served.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/index_io.h"

namespace rlc {

struct DurabilityOptions {
  /// Root of the durability directory (created when missing). Must be set.
  std::string dir;
  /// Auto-checkpoint once the current generation's WAL reaches this many
  /// bytes; 0 disables the trigger (Checkpoint() still works).
  uint64_t checkpoint_wal_bytes = 4ull << 20;
  /// Snapshot generations to retain (>= 1). Two generations mean a corrupt
  /// newest snapshot still recovers from the previous one.
  uint32_t keep_generations = 2;
};

/// What a durable open found on disk.
struct RecoveryInfo {
  bool recovered = false;        ///< false: fresh store, indexes built anew
  uint64_t generation = 0;       ///< snapshot generation loaded
  uint64_t snapshot_lsn = 0;     ///< applied_lsn of that snapshot
  uint64_t replayed_records = 0; ///< WAL batches applied on top
  uint64_t dropped_wal_bytes = 0;///< torn/corrupt WAL tail bytes discarded
  bool fell_back = false;        ///< newest generation was unusable
  std::string fallback_reason;   ///< why, when fell_back
};

/// One parsed snapshot file.
struct LoadedSnapshot {
  uint64_t applied_lsn = 0;
  std::vector<EdgeUpdate> inserted;
  std::vector<EdgeUpdate> removed;
  std::optional<RlcIndex> index;  ///< present when the file embeds one
};

/// Atomically writes a snapshot file (failpoint site "index_io.save").
/// `index` may be null for overlay-only snapshots (the service meta file).
/// \throws std::runtime_error on I/O failure or an injected fault.
void WriteSnapshotFile(const std::string& path, uint64_t applied_lsn,
                       std::span<const EdgeUpdate> inserted,
                       std::span<const EdgeUpdate> removed,
                       const RlcIndex* index);

/// Parses a snapshot file. \throws std::runtime_error naming the file on
/// any corruption (bad magic/version, truncation, checksum mismatch, or an
/// embedded index that fails its own validation) — never UB.
LoadedSnapshot LoadSnapshotFile(const std::string& path);

/// WAL file name for generation `gen` inside a durability dir.
std::string WalPath(const std::string& dir, uint64_t gen);

/// Generation numbers of the `<prefix><G><suffix>` entries in `dir`,
/// ascending. Non-matching names are skipped; a missing directory is empty.
std::vector<uint64_t> ListGenerationFiles(const std::string& dir,
                                          const std::string& prefix,
                                          const std::string& suffix);

}  // namespace rlc
