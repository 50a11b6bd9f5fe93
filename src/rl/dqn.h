#pragma once

/// \file dqn.h
/// Double Deep Q-Network agent (Section II-B / III-B of the paper): an
/// online network selects actions; a periodically synced target network
/// evaluates them (decoupling selection from evaluation to curb Q-value
/// overestimation). Exploration follows the paper's ε-greedy schedule:
/// ε anneals linearly from 1.0 to 0.01 over a configurable horizon
/// (20 000 steps in the paper).

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "rl/mlp.h"
#include "rl/replay_buffer.h"
#include "support/rng.h"

namespace posetrl {

/// Agent hyper-parameters (defaults follow the paper where stated).
struct DqnConfig {
  std::size_t state_dim = 300;
  std::size_t num_actions = 34;
  std::vector<std::size_t> hidden = {256, 128};
  double lr = 1e-4;               ///< Paper: 10^-4.
  double gamma = 0.9;
  double epsilon_start = 1.0;     ///< Paper: 1.0.
  double epsilon_end = 0.01;      ///< Paper: 0.01.
  std::size_t epsilon_decay_steps = 20000;  ///< Paper: 20000.
  std::size_t replay_capacity = 20000;
  std::size_t batch_size = 32;
  std::size_t learn_start = 64;   ///< Min transitions before training.
  /// Replay warmup: no gradient step runs before the buffer holds
  /// max(min_replay_size, batch_size) transitions (0 defers to
  /// learn_start), so the first batches never oversample a near-empty
  /// buffer. See warmupThreshold().
  std::size_t min_replay_size = 0;
  std::size_t train_every = 4;    ///< The paper's µ.
  std::size_t target_sync_every = 250;
  std::uint64_t seed = 1;
  /// Train Q(s, a) toward observed Monte-Carlo returns instead of
  /// bootstrapped Double-DQN targets. The environment is deterministic, so
  /// MC targets are unbiased and far more sample-efficient at the reduced
  /// training budgets this reproduction runs (the paper's 16-hour runs can
  /// afford plain TD). The trainer fills Transition::mc_return.
  bool mc_returns = true;
};

/// The agent's decision rule, shared by every actor that picks an action:
/// the agent itself, the parallel trainer's rollout actors, the compile
/// service, canary rollouts and policy snapshots, so all of them pick
/// identical actions for identical Q-values and RNG states.

/// Index of the first strictly greatest value in \p q, skipping actions
/// with (*blocked)[i] == true when \p blocked is non-null. Raises
/// FatalError when no action is left to pick.
std::size_t maskedArgmax(std::span<const double> q,
                         const std::vector<bool>* blocked);

/// ε-greedy pick over \p net's Q-values for \p state. Draw order: one
/// rng.nextBool(eps); on true, a uniform rng.nextBelow over the unblocked
/// actions (all of them when \p blocked is null or blocks nothing), else
/// maskedArgmax of one forward pass.
std::size_t epsilonGreedy(const Mlp& net, const std::vector<double>& state,
                          const std::vector<bool>* blocked, double eps,
                          Rng& rng);

/// Double DQN agent.
///
/// Thread safety: the const inference surface — actGreedy(), qValues() —
/// is pure (no mutable caches, no lazy state, no RNG draws) and safe to
/// call concurrently from many threads on one shared agent; the serving
/// layer (serve/service.h) relies on this. The mutating surface (act(),
/// observe(), load*/save*) must be externally serialized and must not
/// overlap any inference call.
class DoubleDqn {
 public:
  explicit DoubleDqn(const DqnConfig& config);

  const DqnConfig& config() const { return config_; }

  /// ε-greedy action for \p state (advances the exploration schedule when
  /// \p explore is true). The schedule position includes the current step:
  /// before any exploration epsilon() is exactly epsilon_start, and the
  /// explore-step that moves the counter to epsilon_decay_steps draws with
  /// exactly epsilon_end. When \p blocked is given, actions with
  /// blocked[i] == true are never selected (used by the per-program action
  /// quarantine); at least one action must stay unblocked. With no blocked
  /// actions the RNG stream is identical to the unmasked overload.
  std::size_t act(const std::vector<double>& state, bool explore,
                  const std::vector<bool>* blocked = nullptr);

  /// Greedy action (no exploration, no schedule side effects).
  std::size_t actGreedy(const std::vector<double>& state,
                        const std::vector<bool>* blocked = nullptr) const;

  /// Q-values from the online network.
  std::vector<double> qValues(const std::vector<double>& state) const;

  /// Records a transition and runs a training step when due: past the
  /// replay warmup, whenever stepsTaken() % train_every == 0. Only act()
  /// advances stepsTaken(), and the training loop acts a whole episode
  /// before it observes the episode, so the cadence comes in bursts: every
  /// observe() of an episode sees the episode's final count, and with µ = 4
  /// and 15-step episodes every fourth episode end makes 15 updates while
  /// the others make none (DqnTest.UpdatesArriveInBurstsAtEpisodeEnds).
  /// The mean rate is still one update per train_every steps.
  void observe(Transition t);

  // --- learner surface (parallel actor–learner trainer) -------------------
  // The parallel trainer's rollout actors explore against read-only policy
  // snapshots with their own RNG streams, so the agent never sees their
  // act() calls; the learner drives the agent through these instead. All
  // three are mutating and follow the external-serialization contract above.

  /// Advances the ε schedule by \p n explore-steps taken by rollout actors.
  void noteExploreSteps(std::size_t n) { steps_ += n; }

  /// One batched gradient update on \p batch (same math as the internal
  /// replay-driven step, including the target-network sync cadence).
  /// Returns the mean absolute TD error of the batch.
  double trainOnBatch(const std::vector<const Transition*>& batch);

  /// The online network, e.g. to copy as a rollout actor's read-only
  /// policy snapshot at a sync point.
  const Mlp& onlineNet() const { return online_; }

  /// Replay warmup threshold: max(batch_size, min_replay_size > 0 ?
  /// min_replay_size : learn_start). No gradient step runs below it.
  std::size_t warmupThreshold() const;

  double epsilon() const;
  std::size_t stepsTaken() const { return steps_; }
  std::size_t trainingUpdates() const { return updates_; }

  void saveModel(std::ostream& os) const;
  void loadModel(std::istream& is);

  /// Full-state checkpoint: online net with Adam moments, target net,
  /// replay buffer, exploration RNG, and the step/update counters — enough
  /// to continue a training run bit-exactly (see faults/checkpoint.h).
  void saveCheckpoint(std::ostream& os) const;
  void loadCheckpoint(std::istream& is);

 private:
  void trainBatch();
  double updateFromBatch(const std::vector<const Transition*>& batch);

  DqnConfig config_;
  Rng rng_;
  Mlp online_;
  Mlp target_;
  ReplayBuffer replay_;
  std::size_t steps_ = 0;
  std::size_t updates_ = 0;
  double last_loss_ = 0.0;
};

}  // namespace posetrl
