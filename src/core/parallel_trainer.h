#pragma once

/// \file parallel_trainer.h
/// Parallel actor–learner training pipeline (dispatched from trainAgent when
/// TrainConfig::num_actors >= 2).
///
/// Architecture: training proceeds in rounds. At the start of a round the
/// learner copies the agent's online network into a read-only policy
/// snapshot and freezes the current ε; N rollout actors then run one
/// episode each, concurrently (as the parts of one fork on a pool with one
/// part per actor, support/parallel.h), against that snapshot — every actor
/// owns its private PhaseOrderEnv cache (one env per corpus program,
/// embedding cache and quarantine included), a private program-selection
/// RNG stream and a private exploration RNG stream (Rng::forStream(seed, actor + 1), so
/// streams never collide with each other or with the agent's own
/// Rng(seed)). Finished episodes are Monte-Carlo annotated and appended to
/// the actor's own shard of a ShardedReplayBuffer. After the round barrier
/// the learner merges actor statistics in actor order, advances the shared
/// ε-schedule by the round's step count, and runs the due number of batched
/// gradient updates (DoubleDqn::trainOnBatch — one GEMM per layer) at the
/// sequential loop's cadence of one update per train_every env steps, gated
/// on the replay warmup threshold.
///
/// Determinism contract: for a fixed num_actors the run is bit-reproducible
/// regardless of thread scheduling. Every source of nondeterminism is
/// pinned at a sync point — per-round step quotas are computed from the
/// remaining budget alone, each actor's RNG streams are derived from the
/// seeds and the actor index, episodes land in per-actor shards (so replay
/// contents are independent of push interleaving), stats merge in actor
/// order, and the learner samples only between rounds. Different actor
/// counts produce different (equally valid) trajectories.
///
/// Not supported: checkpoint/resume. The crash-safe checkpoint format
/// captures one sequential trajectory; a parallel run would need per-actor
/// env and RNG state it has no slots for. runParallelTraining raises a
/// recoverable FatalError when checkpoint_path is set rather than silently
/// writing checkpoints a resume could not honour.

#include "core/trainer.h"

namespace posetrl {

/// Trains with config.num_actors concurrent rollout actors. Requires
/// num_actors >= 2 (trainAgent routes smaller values to the bit-exact
/// sequential loop) and an empty checkpoint_path.
TrainResult runParallelTraining(const std::vector<const Module*>& corpus,
                                const TrainConfig& config);

}  // namespace posetrl
