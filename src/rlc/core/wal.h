// Write-ahead log of edge mutations.
//
// The durable service (serve/sharded_service.h) appends every
// acknowledged EdgeUpdate batch here *before* applying it, so a crash at
// any instant loses nothing that was acknowledged: recovery loads the
// newest valid snapshot generation and replays the WAL tail.
//
// File format — a flat sequence of records, little-endian:
//
//   u32 payload_len      bytes of update payload (count * 13)
//   u64 lsn              strictly increasing per record
//   payload              per update: u32 src, u32 label, u32 dst, u8 op
//   u64 checksum         FNV-1a fold over lsn and the payload bytes
//
// One record per ApplyUpdates batch; the append is write + fsync, so an
// acknowledged record is durable. Torn trailing records (a crash mid-append)
// fail the length or checksum check and are dropped by the reader; a
// corrupt record *stops* the read there — records after a hole cannot be
// ordered against the lost one, and replaying them would reorder the
// history. Replay therefore always applies a prefix of the logged batches.
//
// Failpoints (util/failpoint.h): wal.append.before_write / after_write /
// wal.fsync / after_sync, plus the `io` short-write/ENOSPC shim under the
// record write itself.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rlc/core/dynamic_index.h"

namespace rlc {

/// The fsync of a WAL append failed: the record's bytes reached the file
/// but their durability is unknown. Distinct from a short write (plain
/// std::runtime_error from the write path) because the failure mode and
/// the remedy differ — the bytes are complete, only the sync is in doubt.
/// WalWriter::Append rolls the file back to the previous record boundary
/// before throwing this, so the batch was NOT acknowledged and retrying
/// the same LSN is safe.
class WalSyncError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One decoded WAL record: a batch of updates acknowledged as a unit.
struct WalRecord {
  uint64_t lsn = 0;
  std::vector<EdgeUpdate> updates;
};

/// Result of scanning a WAL file.
struct WalReadResult {
  std::vector<WalRecord> records;  ///< valid prefix, ascending lsn
  uint64_t valid_bytes = 0;        ///< bytes covered by `records`
  uint64_t dropped_bytes = 0;      ///< torn/corrupt tail bytes dropped
};

/// Scans `path` and returns the valid record prefix. A missing file reads
/// as empty (a crash can die between manifest commit and WAL creation).
/// Never throws on torn or corrupt bytes — they are counted into
/// dropped_bytes; throws std::runtime_error only on I/O errors (open/read
/// failures on an existing file).
WalReadResult ReadWalFile(const std::string& path);

/// Appender. Singe-owner, matching the mutation surfaces it logs for.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (created when missing). Any previously
  /// opened file is closed first.
  /// \throws std::runtime_error when the file cannot be opened.
  void Open(const std::string& path);

  void Close();
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends one durable record: serialize, write, fsync. On return the
  /// record survives any crash. \throws WalSyncError when the fsync fails
  /// (or the `wal.fsync` failpoint injects a sync failure) and plain
  /// std::runtime_error on write-path failure — either way the file is
  /// rolled back to the previous record boundary (closed if even that
  /// fails), the caller must not acknowledge the batch, and retrying the
  /// same LSN is safe.
  void Append(uint64_t lsn, std::span<const EdgeUpdate> updates);

  /// Bytes appended through this writer since Open (excludes pre-existing
  /// file contents) — the checkpoint trigger input.
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t records_appended() const { return records_appended_; }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t bytes_appended_ = 0;
  uint64_t records_appended_ = 0;
};

}  // namespace rlc
