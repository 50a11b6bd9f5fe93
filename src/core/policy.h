#pragma once

/// \file policy.h
/// Greedy deployment of a trained agent on one program, plus the
/// size/runtime comparison against the stock -Oz pipeline used throughout
/// the paper's evaluation (Tables IV & V, Fig. 5).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/environment.h"
#include "rl/dqn.h"

namespace posetrl {

class Module;

/// One step of a deployed rollout, including the fault data the sandbox
/// attributes to contained failures (faults/fault.h).
struct PolicyStep {
  std::size_t action = 0;  ///< Chosen sub-sequence id.
  double reward = 0.0;
  bool faulted = false;    ///< The action faulted and was rolled back.
  FaultReport fault;       ///< Valid when `faulted`.
};

/// Result of applying a trained policy to one program.
struct PolicyRollout {
  std::vector<std::size_t> action_sequence;  ///< Chosen sub-sequence ids.
  std::vector<PolicyStep> steps;             ///< Per-step outcome detail.
  std::unique_ptr<Module> optimized;         ///< Program after the rollout.
  double size_bytes = 0.0;                   ///< Modeled object size.
  std::size_t faults = 0;        ///< Contained faults during the rollout.
  std::size_t quarantined = 0;   ///< Actions masked by rollout end.
};

/// Rolls out the greedy policy for `config.episode_length` actions. Action
/// selection respects the environment's quarantine mask: an action that
/// faults its way past the quarantine threshold is masked out and the
/// next-best Q-value is taken instead of re-picking the blocked argmax
/// forever. Contained faults surface in `steps`/`faults` instead of being
/// dropped.
PolicyRollout applyPolicy(const DoubleDqn& agent, const Module& program,
                          const std::vector<SubSequence>& actions,
                          const EnvConfig& config);

/// Applies a fixed pass pipeline (e.g. ozPassNames()) to a clone of
/// \p program and returns the optimized module.
std::unique_ptr<Module> applyPipeline(const Module& program,
                                      const std::vector<std::string>& passes);

/// Outcome of one sandboxed stock -Oz run.
struct OzRun {
  std::unique_ptr<Module> output;  ///< Null unless the run completed.
  FaultReport fault;               ///< Why not, when `output` is null.
};

/// Runs the stock -Oz pipeline (ozPassNames()) on a clone of \p program
/// under \p sandbox. The clone's naming counters are first re-derived from
/// its names, as the parser does, so the output, fresh names included,
/// depends on the printed input alone (the serving ladder's -Oz memo
/// compares printed inputs). The serving ladder's -Oz rung, the canary's
/// -Oz floor and the identity digests all run -Oz through this.
OzRun runOzSandboxed(const Module& program, const SandboxConfig& sandbox);

}  // namespace posetrl
