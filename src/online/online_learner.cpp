#include "online/online_learner.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ir/clone.h"
#include "ir/module.h"
#include "support/error.h"

namespace posetrl {

namespace {

/// Gradient steps before each promotion attempt.
constexpr std::size_t kTrainBatchesPerAttempt = 8;
/// Recent request modules kept for shadow-mode canary evaluation.
constexpr std::size_t kShadowCapacity = 4;
/// Ceiling of the doubling wait between durability re-arm probes.
constexpr std::chrono::milliseconds kDurabilityRetryMax{5000};

std::string walDir(const OnlineLearnerConfig& config) {
  return config.dir + "/wal";
}

WalConfig makeWalConfig(const OnlineLearnerConfig& config) {
  WalConfig wal_cfg;
  wal_cfg.dir = walDir(config);
  wal_cfg.sync_every_records = config.wal_sync_every;
  return wal_cfg;
}

/// Copies the seed agent's inference weights into a fresh learner agent
/// (same architecture, fresh Adam state — online fine-tuning starts from
/// the trained policy, not from random initialization).
DoubleDqn makeLearnerAgent(const DoubleDqn& seed_agent) {
  DoubleDqn agent(seed_agent.config());
  std::stringstream model;
  seed_agent.saveModel(model);
  agent.loadModel(model);
  return agent;
}

}  // namespace

OnlineLearner::OnlineLearner(const DoubleDqn& seed_agent,
                             std::vector<SubSequence> actions,
                             OnlineLearnerConfig config)
    : actions_(std::move(actions)),
      config_(std::move(config)),
      agent_(makeLearnerAgent(seed_agent)),
      rng_(Rng::forStream(config_.seed, 1)),
      buffer_(config_.num_shards, config_.shard_capacity),
      watchdog_(config_.watchdog),
      last_good_net_(agent_.onlineNet()),
      armed_net_(agent_.onlineNet()) {
  POSETRL_CHECK(!config_.dir.empty(), "online learner needs a state dir");
  POSETRL_CHECK(config_.num_shards > 0, "online learner needs >= 1 shard");

  // --- crash recovery: WAL -> replay shards ---
  const WalReplay replay = replayWal(walDir(config_));
  for (const EpisodeRecord& rec : replay.episodes) {
    buffer_.pushEpisode(rec.shard % buffer_.numShards(), rec.steps);
    stats_.ingested_steps += rec.steps.size();
  }
  applied_episodes_ = replay.episodes.size();
  stats_.ingested_episodes = replay.episodes.size();
  stats_.recovered_records = replay.records_read;
  stats_.recovered_torn_tail = replay.torn_tail;

  try {
    wal_ = std::make_unique<TrajectoryWal>(makeWalConfig(config_));
  } catch (const FatalError&) {
    // A disk that refuses at startup must not keep the service down:
    // come up degraded and let ingest-time probes re-arm durability.
    ++stats_.wal_failures;
    enterDegradedLocked();
  }

  // --- crash recovery: persisted snapshot -> registry, else seed -> v1 ---
  stats_.startup_gc_removed = gcSnapshotDir(config_.dir);
  PersistedSnapshot persisted;
  bool loaded = false;
  try {
    loaded = loadPolicySnapshotFile(config_.dir, &persisted);
  } catch (const FatalError&) {
    // Snapshot files exist but no generation verifies. Total persisted-state
    // loss: reseed below rather than refuse to serve.
    stats_.snapshot_reseeded = true;
  }
  if (loaded) {
    try {
      ScopedFaultTrap trap;  // Mlp::load checks become FatalError.
      Mlp net = agent_.onlineNet();  // right architecture; weights replaced
      std::istringstream blob(persisted.net_blob);
      net.load(blob);
      auto snap = std::make_unique<PolicySnapshot>(
          persisted.version, persisted.parent_hash, std::move(net),
          persisted.rollback);
      if (snap->hash != persisted.hash) {
        raiseError("persisted snapshot weights do not match their hash");
      }
      stats_.snapshot_from_fallback = persisted.from_fallback;
      last_good_net_ = snap->net;
      last_good_version_ = snap->version;
      stats_.current_version = registry_.publish(std::move(snap));
    } catch (const FatalError&) {
      // The blob parsed as a file but not as a network (or hashes
      // disagree) — treat like total corruption and reseed.
      loaded = false;
      stats_.snapshot_reseeded = true;
    }
  }
  if (!loaded) {
    auto snap = std::make_unique<PolicySnapshot>(1, 0, agent_.onlineNet());
    try {
      savePolicySnapshotFile(config_.dir, *snap);
    } catch (const FatalError&) {
      ++stats_.snapshot_persist_failures;  // serve in-memory regardless
    }
    last_good_net_ = snap->net;
    last_good_version_ = 1;
    stats_.current_version = registry_.publish(std::move(snap));
  }
  stats_.last_good_version = last_good_version_;
}

OnlineLearner::~OnlineLearner() { stop(); }

void OnlineLearner::start() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  learner_ = std::thread([this] { learnerLoop(); });
}

void OnlineLearner::stop() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (!running_) return;
    stopping_ = true;
  }
  ingest_cv_.notify_all();
  learner_.join();
  std::lock_guard<std::mutex> lock(ingest_mu_);
  running_ = false;
  POSETRL_CHECK(pending_.empty(), "learner stopped with undrained episodes");
}

void OnlineLearner::drain() {
  std::size_t target = 0;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    target = stats_.ingested_episodes;
  }
  std::unique_lock<std::mutex> lock(ingest_mu_);
  POSETRL_CHECK(running_, "drain() needs a running learner");
  drained_cv_.wait(lock,
                   [this, target] { return applied_episodes_ >= target; });
}

void OnlineLearner::ingest(EpisodeRecord record) {
  record.shard = static_cast<std::uint32_t>(record.shard %
                                            buffer_.numShards());
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (degraded_ && !probeDurabilityLocked()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.ingest_dropped;
    return;
  }
  // Append-then-enqueue under one lock: WAL order is exactly the order the
  // learner pushes episodes into the shards, which is what makes a replay
  // of the WAL rebuild bit-identical shard contents. An episode the WAL
  // refused is dropped, NOT queued — queuing it would put an unlogged
  // episode in the shards and break that equality.
  try {
    wal_->append(record);
  } catch (const FatalError&) {
    enterDegradedLocked();
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.wal_failures;
    ++stats_.ingest_dropped;
    return;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.ingested_episodes;
    stats_.ingested_steps += record.steps.size();
  }
  pending_.push_back(std::move(record));
  ingest_cv_.notify_one();
}

void OnlineLearner::retireWalLocked() {
  if (wal_ == nullptr) return;
  const TrajectoryWal::Stats& s = wal_->stats();
  wal_stats_base_.records += s.records;
  wal_stats_base_.bytes += s.bytes;
  wal_stats_base_.segments_created += s.segments_created;
  wal_stats_base_.syncs += s.syncs;
  wal_stats_base_.gc_removed_segments += s.gc_removed_segments;
  wal_stats_base_.repaired_torn_bytes += s.repaired_torn_bytes;
  wal_stats_base_.append_us += s.append_us;
  wal_.reset();  // best-effort final sync; destructor never throws
}

void OnlineLearner::enterDegradedLocked() {
  retireWalLocked();
  degraded_ = true;
  probe_backoff_ =
      std::chrono::milliseconds(config_.durability_retry_initial_ms);
  next_probe_ = std::chrono::steady_clock::now() + probe_backoff_;
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.durability_degraded = true;
}

bool OnlineLearner::probeDurabilityLocked() {
  const auto now = std::chrono::steady_clock::now();
  if (now < next_probe_) return false;
  try {
    // Rebuild the writer from scratch: its constructor garbage-collects
    // empty segments and truncates any torn tail the failed appends left,
    // so a successful probe re-arms onto a clean log.
    wal_ = std::make_unique<TrajectoryWal>(makeWalConfig(config_));
  } catch (const FatalError&) {
    probe_backoff_ = std::min(probe_backoff_ * 2, kDurabilityRetryMax);
    next_probe_ = now + probe_backoff_;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.wal_failures;
    return false;
  }
  degraded_ = false;
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.durability_rearms;
  stats_.durability_degraded = false;
  return true;
}

void OnlineLearner::observe(const ServeObservation& obs) {
  switch (watchdog_.observe(obs)) {
    case PromotionWatchdog::Verdict::None:
      return;
    case PromotionWatchdog::Verdict::Breach:
      rollbackToLastGood();
      return;
    case PromotionWatchdog::Verdict::Graduate: {
      std::lock_guard<std::mutex> lock(promote_mu_);
      last_good_net_ = armed_net_;
      last_good_version_ = armed_version_;
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.graduations;
      stats_.last_good_version = last_good_version_;
      return;
    }
  }
}

void OnlineLearner::addHoldoutModule(const Module& program) {
  holdout_.push_back(cloneModule(program));
}

void OnlineLearner::noteRequestModule(const Module& program) {
  std::shared_ptr<const Module> clone = cloneModule(program);
  std::lock_guard<std::mutex> lock(shadow_mu_);
  shadow_.push_back(std::move(clone));
  while (shadow_.size() > kShadowCapacity) shadow_.pop_front();
}

std::uint64_t OnlineLearner::forcePromote(Mlp net) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  return promoteLocked(std::move(net), /*rollback=*/false,
                       /*arm_watchdog=*/true);
}

std::uint64_t OnlineLearner::promoteLocked(Mlp net, bool rollback,
                                           bool arm_watchdog) {
  const std::uint64_t version = registry_.currentVersion() + 1;
  std::uint64_t parent_hash = 0;
  {
    const SnapshotRegistry::Pin incumbent = registry_.pin();
    if (incumbent) parent_hash = incumbent->hash;
  }
  auto snap = std::make_unique<PolicySnapshot>(version, parent_hash,
                                               std::move(net), rollback);
  if (arm_watchdog) {
    armed_net_ = snap->net;
    armed_version_ = version;
  }
  try {
    savePolicySnapshotFile(config_.dir, *snap);
  } catch (const FatalError&) {
    // Publish in memory anyway: serving continuity beats durability here.
    // A restart before the next successful save resumes from the last
    // snapshot that reached the disk — an older but trusted policy.
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.snapshot_persist_failures;
  }
  registry_.publish(std::move(snap));
  if (arm_watchdog) watchdog_.arm(version);
  std::lock_guard<std::mutex> slock(stats_mu_);
  if (rollback) {
    ++stats_.rollbacks;
  } else {
    ++stats_.promotions;
  }
  stats_.current_version = version;
  return version;
}

void OnlineLearner::rollbackToLastGood() {
  std::lock_guard<std::mutex> lock(promote_mu_);
  // The breach already disarmed the watchdog; the restored incumbent is
  // trusted (it graduated or seeded the service), so it is not re-judged —
  // that is what prevents breach -> rollback -> breach loops.
  promoteLocked(last_good_net_, /*rollback=*/true, /*arm_watchdog=*/false);
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.last_good_version = last_good_version_;
}

void OnlineLearner::learnerLoop() {
  std::size_t since_attempt = 0;
  for (;;) {
    std::vector<EpisodeRecord> batch;
    {
      std::unique_lock<std::mutex> lock(ingest_mu_);
      ingest_cv_.wait(lock,
                      [this] { return stopping_ || !pending_.empty(); });
      while (!pending_.empty()) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      if (batch.empty()) return;  // stopping and fully drained
    }
    for (EpisodeRecord& rec : batch) applyRecord(std::move(rec));
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      applied_episodes_ += batch.size();
      drained_cv_.notify_all();
      if (stopping_) {
        // Drain-only while stopping: episodes reach the shards, but no
        // further training or promotion runs.
        if (pending_.empty()) return;
        continue;
      }
    }
    since_attempt += batch.size();
    if (config_.promote_every > 0 && since_attempt >= config_.promote_every) {
      since_attempt = 0;
      trainAndMaybePromote();
    }
  }
}

void OnlineLearner::applyRecord(EpisodeRecord record) {
  buffer_.pushEpisode(record.shard, std::move(record.steps));
}

void OnlineLearner::trainAndMaybePromote() {
  if (buffer_.size() < agent_.warmupThreshold()) return;
  for (std::size_t i = 0; i < kTrainBatchesPerAttempt; ++i) {
    const std::vector<const Transition*> batch =
        buffer_.sample(agent_.config().batch_size, rng_);
    agent_.trainOnBatch(batch);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.trained_batches += kTrainBatchesPerAttempt;
  }
  if (watchdog_.armed()) return;  // one candidate on trial at a time

  Mlp candidate = agent_.onlineNet();
  const SnapshotRegistry::Pin incumbent = registry_.pin();
  POSETRL_CHECK(incumbent, "no incumbent snapshot while promoting");

  std::vector<const Module*> holdout;
  for (const auto& m : holdout_) holdout.push_back(m.get());
  std::vector<std::shared_ptr<const Module>> shadow_refs;
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_refs.assign(shadow_.begin(), shadow_.end());
  }
  std::vector<const Module*> shadow;
  for (const auto& m : shadow_refs) shadow.push_back(m.get());

  const CanaryReport report =
      runCanary(candidate, incumbent->net, holdout, shadow, actions_,
                config_.env, config_.canary);
  if (!report.accepted) {
    std::lock_guard<std::mutex> lock(promote_mu_);
    last_reject_reason_ = report.reason;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.rejections;
    return;
  }
  std::lock_guard<std::mutex> lock(promote_mu_);
  promoteLocked(std::move(candidate), /*rollback=*/false,
                /*arm_watchdog=*/true);
}

OnlineStats OnlineLearner::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::string OnlineLearner::lastRejectReason() const {
  std::lock_guard<std::mutex> lock(promote_mu_);
  return last_reject_reason_;
}

TrajectoryWal::Stats OnlineLearner::walStats() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  TrajectoryWal::Stats total = wal_stats_base_;
  if (wal_ != nullptr) {
    const TrajectoryWal::Stats& s = wal_->stats();
    total.records += s.records;
    total.bytes += s.bytes;
    total.segments_created += s.segments_created;
    total.syncs += s.syncs;
    total.gc_removed_segments += s.gc_removed_segments;
    total.repaired_torn_bytes += s.repaired_torn_bytes;
    total.append_us += s.append_us;
  }
  return total;
}

}  // namespace posetrl
