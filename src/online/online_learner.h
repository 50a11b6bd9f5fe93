#pragma once

/// \file online_learner.h
/// The online-learning loop behind CompileService (DESIGN.md "Online
/// learning and policy lifecycle"): served episodes flow in, policy
/// snapshots flow out, and every hand-off is crash-safe.
///
///   workers --ingest()--> WAL (durable) --> learner thread --> replay
///   shards --> DQN updates --> candidate --> canary gate --> publish()
///   --> watchdog --observe()--> graduate | breach --> rollback
///
/// Durability contract: ingest() appends the episode to the write-ahead log
/// and enqueues it for the learner under one mutex, so WAL order equals
/// replay-buffer push order; after a crash, the constructor replays the WAL
/// into the sharded buffer and rebuilds the exact pre-crash contents (each
/// record carries its shard index, so recovery is independent of the
/// original worker threading). Promoted snapshots are persisted atomically;
/// a restarted service resumes serving the last promoted policy.
///
/// Durability degradation: a disk fault (EIO, ENOSPC, failed fsync) on the
/// ingest path must not take serving down. When a WAL append raises
/// IoError, the learner enters a counted no-durability mode: requests keep
/// being served, but episodes are DROPPED (`ingest_dropped`) rather than
/// queued — pushing unlogged episodes would break the WAL-order ==
/// shard-order recovery contract. Ingest attempts re-arm with exponential
/// backoff (`durability_retry_*`): each probe rebuilds the WAL writer,
/// whose constructor garbage-collects and repairs whatever the failed
/// appends left on disk. On success the mode clears (`durability_rearms`)
/// and episodes flow durably again. Snapshot-persist failures likewise
/// degrade to in-memory publication (`snapshot_persist_failures`) — a
/// restart then resumes from the last snapshot that did reach the disk,
/// which is always a safe, older policy.
///
/// Promotion contract: every published version strictly increases — a
/// rollback does not republish an old pointer, it publishes a *new* version
/// carrying the last-good weights and `rollback = true`, so in-flight pins
/// and the version history stay coherent.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "online/canary.h"
#include "online/snapshot.h"
#include "online/wal.h"
#include "online/watchdog.h"
#include "rl/dqn.h"
#include "rl/replay_buffer.h"
#include "support/rng.h"

namespace posetrl {

class Module;

struct OnlineLearnerConfig {
  /// State root: the WAL lives in `dir + "/wal"`, the persisted snapshot in
  /// `dir` itself. Required.
  std::string dir;
  /// Replay shards (ingest distributes episodes round-robin by request id).
  std::size_t num_shards = 4;
  std::size_t shard_capacity = 4096;
  /// WAL group-commit interval (WalConfig::sync_every_records); segments
  /// rotate at WalConfig's default size.
  std::size_t wal_sync_every = 16;
  /// Ingested episodes between promotion attempts (0 disables automatic
  /// promotion — candidates then only appear via forcePromote()). Each
  /// attempt first runs kTrainBatchesPerAttempt gradient steps, and the
  /// canary also rolls out on the last kShadowCapacity request modules.
  std::size_t promote_every = 8;
  CanaryConfig canary;
  WatchdogConfig watchdog;
  /// Environment for canary rollouts.
  EnvConfig env;
  std::uint64_t seed = 0x0e11a;
  /// First re-arm probe after entering durability degradation fires this
  /// many ms after the failure; consecutive probe failures double the wait
  /// up to kDurabilityRetryMax.
  std::size_t durability_retry_initial_ms = 100;
};

/// Monotonic counters; snapshot via OnlineLearner::stats().
struct OnlineStats {
  std::size_t recovered_records = 0;  ///< WAL records replayed at startup.
  bool recovered_torn_tail = false;   ///< Startup replay hit a torn record.
  std::size_t ingested_episodes = 0;
  std::size_t ingested_steps = 0;
  std::size_t trained_batches = 0;
  std::size_t promotions = 0;   ///< Canary-accepted or forced publishes.
  std::size_t rejections = 0;   ///< Canary-rejected candidates.
  std::size_t rollbacks = 0;    ///< Watchdog breaches acted on.
  std::size_t graduations = 0;  ///< Versions promoted to last-good.
  std::uint64_t current_version = 0;
  std::uint64_t last_good_version = 0;
  // Durability degradation (see file comment).
  std::size_t wal_failures = 0;    ///< WAL appends/rebuilds that raised.
  std::size_t ingest_dropped = 0;  ///< Episodes dropped while degraded.
  std::size_t durability_rearms = 0;  ///< Degraded -> durable transitions.
  std::size_t snapshot_persist_failures = 0;
  bool durability_degraded = false;   ///< Currently in no-durability mode.
  // Startup recovery detail.
  std::size_t startup_gc_removed = 0;  ///< Orphaned snapshot tmp files swept.
  bool snapshot_from_fallback = false;  ///< Loaded snapshot-prev.txt.
  bool snapshot_reseeded = false;  ///< No generation loadable; reseeded v1.
};

/// Owns the durable ingest path, the background learner, and the policy
/// lifecycle. One instance per CompileService; the service keeps it alive.
class OnlineLearner {
 public:
  /// \p seed_agent provides the network architecture and the initial
  /// weights of version 1 (unless a persisted snapshot takes precedence);
  /// \p actions is the serving action space (canary rollouts replay it).
  /// The constructor performs full crash recovery: replays the WAL into the
  /// replay shards and republishes the persisted current snapshot.
  OnlineLearner(const DoubleDqn& seed_agent, std::vector<SubSequence> actions,
                OnlineLearnerConfig config);
  ~OnlineLearner();
  OnlineLearner(const OnlineLearner&) = delete;
  OnlineLearner& operator=(const OnlineLearner&) = delete;

  /// Spawns the learner thread (no-op when running).
  void start();
  /// Drains pending episodes into the replay shards and joins. Idempotent.
  void stop();
  /// Blocks until every episode ingested so far has reached the replay
  /// shards (the learner must be running).
  void drain();

  /// Durable ingest: appends \p record to the WAL and queues it for the
  /// learner. Called by service workers; thread-safe. The episode's
  /// transitions must already carry Monte-Carlo annotations (the WAL stores
  /// exactly what the replay buffer will hold). Never raises on disk
  /// faults: a failed append degrades durability (the episode is dropped
  /// and counted) instead of propagating into the serving worker.
  void ingest(EpisodeRecord record);

  /// Feeds one served request to the promotion watchdog; a breach verdict
  /// triggers an automatic rollback to last-good, a graduation marks the
  /// armed version last-good. Thread-safe.
  void observe(const ServeObservation& obs);

  /// Clones \p program into the pinned held-out canary set (call before
  /// serving starts; not thread-safe against a running learner).
  void addHoldoutModule(const Module& program);
  /// Clones \p program into the bounded shadow set of recent real requests
  /// (called by service workers; thread-safe).
  void noteRequestModule(const Module& program);

  /// Publishes \p net as a new version without canary gating, arming the
  /// watchdog — the hook tests and smokes use to inject a known-bad policy
  /// and exercise the rollback path. Returns the published version.
  std::uint64_t forcePromote(Mlp net);

  /// Snapshot registry for per-request pins (service side).
  const SnapshotRegistry& registry() const { return registry_; }
  std::uint64_t currentVersion() const { return registry_.currentVersion(); }

  std::size_t numShards() const { return buffer_.numShards(); }
  /// Read access for recovery-equivalence tests (sync points only).
  const ShardedReplayBuffer& buffer() const { return buffer_; }

  OnlineStats stats() const;
  /// Last canary rejection reason (empty when none).
  std::string lastRejectReason() const;
  /// WAL counters accumulated across every writer instance this learner
  /// created (re-arm probes replace the writer; totals do not reset).
  TrajectoryWal::Stats walStats() const;
  SnapshotRegistry::Stats registryStats() const { return registry_.stats(); }
  PromotionWatchdog::Stats watchdogStats() const { return watchdog_.stats(); }

 private:
  void learnerLoop();
  /// Pushes \p record into its replay shard (learner thread only).
  void applyRecord(EpisodeRecord record);
  void trainAndMaybePromote();
  /// Publishes \p net as currentVersion()+1. Caller holds promote_mu_.
  std::uint64_t promoteLocked(Mlp net, bool rollback, bool arm_watchdog);
  void rollbackToLastGood();
  /// Folds the live writer's counters into the accumulated totals and
  /// destroys it. Caller holds ingest_mu_.
  void retireWalLocked();
  /// Enters no-durability mode and schedules the first re-arm probe.
  /// Caller holds ingest_mu_.
  void enterDegradedLocked();
  /// While degraded: attempts to rebuild the WAL writer once the backoff
  /// deadline has passed. Returns true when durable ingestion is re-armed.
  /// Caller holds ingest_mu_.
  bool probeDurabilityLocked();

  std::vector<SubSequence> actions_;
  OnlineLearnerConfig config_;
  DoubleDqn agent_;  ///< Learner-owned; trained on the learner thread only.
  Rng rng_;
  ShardedReplayBuffer buffer_;
  SnapshotRegistry registry_;
  PromotionWatchdog watchdog_;
  std::unique_ptr<TrajectoryWal> wal_;

  /// Serializes WAL appends with pending-queue pushes (the order contract).
  mutable std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  /// Durability degradation state (guarded by ingest_mu_).
  bool degraded_ = false;
  std::chrono::milliseconds probe_backoff_{0};
  std::chrono::steady_clock::time_point next_probe_;
  TrajectoryWal::Stats wal_stats_base_;  ///< Totals from retired writers.
  std::deque<EpisodeRecord> pending_;
  std::condition_variable drained_cv_;
  std::size_t applied_episodes_ = 0;  ///< Episodes moved into the shards.
  bool running_ = false;
  bool stopping_ = false;
  std::thread learner_;

  /// Serializes publishes, rollback state, and the armed-candidate record.
  mutable std::mutex promote_mu_;
  Mlp last_good_net_;
  std::uint64_t last_good_version_ = 0;
  Mlp armed_net_;  ///< Weights of the version the watchdog is judging.
  std::uint64_t armed_version_ = 0;
  std::string last_reject_reason_;

  mutable std::mutex shadow_mu_;
  std::deque<std::shared_ptr<const Module>> shadow_;
  std::vector<std::unique_ptr<const Module>> holdout_;

  mutable std::mutex stats_mu_;
  OnlineStats stats_;
};

}  // namespace posetrl
