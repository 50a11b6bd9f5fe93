#pragma once

/// \file snapshot.h
/// Versioned, immutable policy snapshots and the hot-swap registry that
/// serves them (DESIGN.md "Online learning and policy lifecycle").
///
/// A PolicySnapshot freezes one version of the policy network: the version
/// number, a content hash of the weights, the parent snapshot's hash (so the
/// promotion lineage is a verifiable chain), and a private copy of the Mlp.
/// Snapshots are immutable after construction — the whole point is that a
/// request can keep using one while the learner publishes successors.
///
/// SnapshotRegistry is the swap point: one mutex-guarded
/// shared_ptr<const PolicySnapshot>. A reader pin()s by copying that
/// pointer under the lock and holds the copy for as long as it uses the
/// snapshot — an in-flight request pins once at admission and finishes on
/// the snapshot it started with, no matter how many promotions happen
/// meanwhile. publish() swaps the pointer under the same lock; a superseded
/// snapshot is freed when its last pin drops, never under the lock. The
/// serve path takes one pin per request, so the lock is held for a
/// pointer copy a few hundred times a second.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rl/mlp.h"

namespace posetrl {

/// Stable content hash of a network's inference parameters (weights +
/// biases, not Adam state): snapshots with equal weights hash equally.
std::uint64_t hashMlpWeights(const Mlp& net);

/// One immutable published policy version.
struct PolicySnapshot {
  std::uint64_t version = 0;
  std::uint64_t hash = 0;         ///< hashMlpWeights(net).
  std::uint64_t parent_hash = 0;  ///< Hash of the predecessor (0 = root).
  bool rollback = false;          ///< Published by an automatic rollback.
  Mlp net;

  PolicySnapshot(std::uint64_t version, std::uint64_t parent_hash, Mlp net,
                 bool rollback = false);

  /// Greedy action under this snapshot (pure const, thread-safe).
  std::size_t actGreedy(const std::vector<double>& state,
                        const std::vector<bool>* blocked = nullptr) const;
};

/// Publication point for policy snapshots (see file comment).
class SnapshotRegistry {
 public:
  /// Read guard: shares ownership of the pinned snapshot, which stays alive
  /// and unchanged until the last pin of it drops. Empty when nothing was
  /// published yet.
  using Pin = std::shared_ptr<const PolicySnapshot>;

  /// Pins the current snapshot (an empty Pin when nothing is published).
  Pin pin() const;

  /// Publishes \p snap as the new current version. Versions must be
  /// strictly increasing. Returns the published version. Thread-safe
  /// against concurrent pins and publishes.
  std::uint64_t publish(std::unique_ptr<PolicySnapshot> snap);

  /// Version of the current snapshot (0 when nothing is published).
  std::uint64_t currentVersion() const;

  struct Stats {
    std::size_t published = 0;
    double last_publish_us = 0.0;  ///< Time the swap held the lock.
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;  ///< Guards everything below.
  Pin current_;
  Stats stats_;
};

// --- snapshot persistence --------------------------------------------------
// Promoted snapshots are persisted so a restarted service resumes on the
// last promoted policy. Two generations live in the snapshot directory:
// `snapshot-current.txt` (newest promoted version) and `snapshot-prev.txt`
// (its predecessor). A save rotates current → prev, then publishes the new
// file with write-tmp → fdatasync → rename → dir-fsync, so the directory
// never references a half-written snapshot and always holds at least one
// loadable generation — a crash or corruption of `current` falls back to
// `prev`.
//
// File format v2: one header line
//   policy-snapshot v2 <version> <hash> <parent_hash> <rollback>
//                      <blob_len> <blob_fnv> <header_crc>
// followed by the Mlp::save payload. `header_crc` is an fnv1a over the
// preceding header fields (a flipped bit in the metadata is caught before
// any field is trusted); `blob_len`/`blob_fnv` pin the payload's length and
// content (truncation at any byte offset and single-bit flips both fail
// verification instead of loading garbage weights). v1 files (no
// checksums) remain readable.

struct PersistedSnapshot {
  std::uint64_t version = 0;
  std::uint64_t hash = 0;
  std::uint64_t parent_hash = 0;
  bool rollback = false;
  bool from_fallback = false;  ///< Loaded from snapshot-prev.txt.
  std::string net_blob;  ///< Mlp::save payload.
};

/// Durably writes \p snap as the directory's current snapshot, rotating the
/// previous current to `snapshot-prev.txt` first. Raises IoError when the
/// disk refuses; the previous generation stays loadable in every failure
/// case.
void savePolicySnapshotFile(const std::string& dir,
                            const PolicySnapshot& snap);

/// Loads the persisted current snapshot, falling back to the previous
/// generation when `current` is missing or fails verification (sets
/// `out->from_fallback`). Returns false when no generation exists; raises
/// FatalError only when a snapshot file exists but no generation verifies.
bool loadPolicySnapshotFile(const std::string& dir, PersistedSnapshot* out);

/// Unlinks orphaned publication temporaries (`*.tmp`) a crashed save left
/// in \p dir. Returns the number removed. Safe to call on a missing
/// directory (returns 0).
std::size_t gcSnapshotDir(const std::string& dir);

}  // namespace posetrl
