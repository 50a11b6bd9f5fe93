#pragma once

/// \file trainer.h
/// Training loop of the POSET-RL agent: episodes cycle over the training
/// corpus (the paper uses 130 llvm-test-suite single-source programs); each
/// episode rolls the ε-greedy policy for a fixed number of steps, feeding
/// transitions into the Double DQN's replay memory.
///
/// The loop is crash-safe: with `checkpoint_path` set it periodically
/// serializes the complete training state (agent weights + Adam moments,
/// target net, replay buffer, ε-schedule position, both RNG streams, step
/// counter, per-program quarantines) with atomic tmp+rename writes, and
/// resumeTraining() continues a killed run bit-exactly from the last
/// checkpoint — at most one checkpoint interval of work is lost.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.h"
#include "rl/dqn.h"

namespace posetrl {

class Module;

/// Training-run parameters.
struct TrainConfig {
  EnvConfig env;
  DqnConfig agent;
  /// Total environment steps (the paper trains 1005 steps/iteration for
  /// many iterations; benchmarks here use reduced budgets).
  std::size_t total_steps = 2000;
  std::uint64_t seed = 7;
  bool verbose = false;
  /// Explicit action space. When null, chosen by the agent's head count
  /// (manual vs ODG sub-sequences); set it to train over a custom space,
  /// e.g. one with fault-injection actions appended.
  const std::vector<SubSequence>* actions = nullptr;
  /// Crash-safe checkpointing: empty disables. Checkpoints are taken at the
  /// first episode boundary after every `checkpoint_every_steps` env steps.
  std::string checkpoint_path;
  std::size_t checkpoint_every_steps = 500;
  /// Concurrent rollout actors. 1 (the default) runs the sequential loop —
  /// bit-exact with earlier releases and with checkpoint/resume; >= 2
  /// dispatches to the round-based actor–learner pipeline
  /// (core/parallel_trainer.h), which is deterministic for a fixed actor
  /// count but does not support checkpointing. Either way the learner's
  /// update runs on a learner pool (support/parallel.h) as wide as the
  /// process's CPU affinity mask, bit-identically to a serial update; the
  /// pipeline runs each round's actors as the parts of one fork on a second
  /// pool with one part per actor.
  std::size_t num_actors = 1;
};

/// Summary statistics of a training run.
struct TrainStats {
  std::size_t episodes = 0;
  std::size_t steps = 0;
  double mean_episode_reward = 0.0;
  double final_epsilon = 0.0;
  std::vector<double> episode_rewards;
  /// Contained pass faults observed during training (sandboxed actions that
  /// rolled back), keyed by FaultKind name, plus the actions the
  /// per-program quarantine masked as a result.
  std::size_t faults = 0;
  std::map<std::string, std::size_t> faults_by_kind;
  std::size_t quarantined_actions = 0;
  std::size_t checkpoints_written = 0;
  /// Analysis-cache counters summed over every training environment:
  /// dominator/loop-info/liveness/... queries served from cache vs rebuilt,
  /// plus pass-contract checks run at sandbox pass boundaries.
  AnalysisCacheStats analysis;
  /// Embedding/static-feature cache counters summed over every environment.
  EmbedCacheStats embed_cache;
};

/// Trains an agent over \p corpus (unoptimized modules). The returned agent
/// is ready for greedy deployment. Every program must outlive the call.
struct TrainResult {
  std::unique_ptr<DoubleDqn> agent;
  TrainStats stats;
};

TrainResult trainAgent(const std::vector<const Module*>& corpus,
                       const TrainConfig& config);

/// The action space a run over \p config trains on: config.actions when
/// set, otherwise the manual or ODG sub-sequences matching the agent's head
/// count. Checks that the head count and action-space size agree. Shared by
/// the sequential and parallel training loops.
const std::vector<SubSequence>& resolveTrainActions(const TrainConfig& config);

/// Continues a run from a checkpoint written by trainAgent. The corpus and
/// config must match the original run; the resumed run replays the exact
/// trajectory the uninterrupted run would have taken (same seeds, same
/// episode rewards). Raises FatalError if the checkpoint is missing or
/// corrupt.
TrainResult resumeTraining(const std::vector<const Module*>& corpus,
                           const TrainConfig& config,
                           const std::string& checkpoint_path);

/// Serialization helpers for trained models. Writes are atomic
/// (tmp + rename); loads raise FatalError on short or corrupt files instead
/// of aborting.
void saveAgentToFile(const DoubleDqn& agent, const std::string& path);
void loadAgentFromFile(DoubleDqn& agent, const std::string& path);

}  // namespace posetrl
