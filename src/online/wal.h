#pragma once

/// \file wal.h
/// Write-ahead trajectory log: the durable-ingestion layer of the online
/// learning subsystem (DESIGN.md "Online learning and policy lifecycle").
///
/// CompileService workers serialize every served episode into an
/// EpisodeRecord and append it to the log *before* it is queued for the
/// background learner, so a process killed at any instant can rebuild the
/// exact replay-buffer state it had by replaying the log.
///
/// On-disk format — a directory of append-only segment files
/// (`wal-NNNNNN.log`, monotonically numbered). Each record is one frame:
///
///   u32 magic ("PWL1") | u32 payload_len | u64 fnv1a(payload) | payload
///
/// written with a single write(2) call, so an interrupted append (kill -9,
/// power loss mid-write) leaves at most one torn frame, and only at the very
/// tail of the highest-numbered segment. Appends fsync in batches
/// (`sync_every_records`); segment rotation is atomic — the new segment is
/// created O_EXCL, the old one fsync'd and closed, and the directory entry
/// fsync'd, so a crash between any two steps loses no acknowledged record.
/// A restarted writer never appends to an existing segment (it opens the
/// next index), so a torn tail stays confined to the pre-crash segment.
///
/// replayWal() reads segments in index order, validating every frame.
/// A truncated or checksum-corrupt tail at the *logical end of the log*
/// (the last segment, or a segment followed only by empty segments — the
/// signature of a crash during rotation) is the expected kill -9 outcome
/// and is tolerated (reported as `torn_tail`); any malformed frame with
/// intact records after it is real corruption and raises a recoverable
/// FatalError.
///
/// Every syscall goes through the support/io shim (support/io.h), so disk
/// faults — EIO, ENOSPC, short writes, failed fsyncs — surface as
/// catchable IoError and are injectable in tests. A fresh writer repairs
/// what a crashed predecessor left behind: zero-byte segments (a crash
/// between segment creation and the first append, or a failed re-arm
/// probe) are unlinked, and a torn tail on the highest surviving segment
/// is truncated away so the next crash's torn tail is again the only one
/// in the log.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rl/replay_buffer.h"
#include "support/io.h"

namespace posetrl {

/// Writer configuration.
struct WalConfig {
  std::string dir;  ///< Segment directory (created if missing).
  /// Rotate to a fresh segment once the current one holds at least this
  /// many bytes.
  std::size_t segment_bytes = 4u << 20;
  /// fsync after every N appended records (1 = every record, 0 = never —
  /// the OS page cache still survives process death, only machine crashes
  /// can lose unsynced records).
  std::size_t sync_every_records = 16;
};

/// One served episode: the unit of WAL appends and of replay-buffer pushes.
/// `shard` pins which ShardedReplayBuffer shard the episode lands in, so a
/// recovery replay rebuilds bit-identical shard contents regardless of which
/// worker thread originally served the request.
struct EpisodeRecord {
  std::uint32_t shard = 0;
  std::uint64_t request_id = 0;
  std::uint64_t policy_version = 0;  ///< Snapshot the episode was served on.
  std::uint32_t faults = 0;          ///< Contained faults during the rollout.
  std::vector<Transition> steps;
};

/// Binary payload (the checksummed frame body) for one record.
std::string encodeEpisodeRecord(const EpisodeRecord& record);
/// Inverse of encodeEpisodeRecord; raises FatalError on a malformed payload
/// (a frame whose checksum passed but whose body does not parse is
/// corruption, not a torn write).
EpisodeRecord decodeEpisodeRecord(std::string_view payload);

/// Append-only segment writer. Thread-compatibility: one writer at a time —
/// the ingest path serializes appends under its own mutex so WAL order
/// equals replay-buffer push order (the bit-exact recovery contract).
class TrajectoryWal {
 public:
  /// Opens a *fresh* segment numbered one past the highest existing segment
  /// in `config.dir` (creating the directory when missing).
  explicit TrajectoryWal(WalConfig config);
  ~TrajectoryWal();
  TrajectoryWal(const TrajectoryWal&) = delete;
  TrajectoryWal& operator=(const TrajectoryWal&) = delete;

  /// Frames and appends \p record; fsyncs when the batch interval is due;
  /// rotates segments when the size threshold is crossed. Raises IoError
  /// when the disk refuses (EIO/ENOSPC/failed sync): a write that failed
  /// partway leaves a torn frame, which append() repairs in place
  /// (truncating back to the last committed record) when the disk lets it —
  /// otherwise the writer is poisoned and every later append raises until
  /// a fresh TrajectoryWal re-runs the startup repair.
  void append(const EpisodeRecord& record);

  /// Forces an fsync of any unsynced appends. Raises IoError on failure.
  void sync();

  struct Stats {
    std::size_t records = 0;
    std::size_t bytes = 0;
    std::size_t segments_created = 0;
    std::size_t syncs = 0;
    /// Zero-byte segments from a killed predecessor unlinked at startup.
    std::size_t gc_removed_segments = 0;
    /// Torn-tail bytes truncated off the predecessor's last segment.
    std::size_t repaired_torn_bytes = 0;
    /// Total wall time spent inside append() (encode + write + any fsync /
    /// rotation it triggered) — append_us / records is the per-record
    /// durability overhead the serving path pays.
    double append_us = 0.0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void openSegment(std::size_t index);

  WalConfig config_;
  io::IoFile file_;
  std::size_t segment_index_ = 0;
  std::size_t segment_bytes_written_ = 0;
  std::size_t unsynced_records_ = 0;
  /// A failed append left a torn frame the disk refused to truncate away;
  /// appending past it would strand unparseable bytes mid-log.
  bool poisoned_ = false;
  Stats stats_;
};

/// Result of replaying a WAL directory.
struct WalReplay {
  std::vector<EpisodeRecord> episodes;  ///< Every intact record, log order.
  std::size_t segments_read = 0;
  std::size_t records_read = 0;
  bool torn_tail = false;     ///< The last segment ended mid-record.
  std::size_t torn_bytes = 0; ///< Bytes discarded at the torn tail.
};

/// Sorted segment file paths of \p dir (empty when the directory is missing).
std::vector<std::string> walSegmentFiles(const std::string& dir);

/// Replays every intact record of \p dir in log order. Tolerates a torn
/// final record (see file comment); raises FatalError on corruption earlier
/// in the log.
WalReplay replayWal(const std::string& dir);

}  // namespace posetrl
