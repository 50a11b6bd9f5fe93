#pragma once

/// \file canary.h
/// Canary gate for candidate policies: before a freshly trained network is
/// promoted to serving, it must prove itself on (a) a pinned held-out module
/// set and (b) shadow replays of recent real requests. Every evaluation
/// rollout runs fully sandboxed, so a catastrophically bad candidate is
/// rejected without ever touching live traffic.
///
/// The gate measures mean modeled-size ratios (optimized / unoptimized,
/// best-prefix semantics matching the serving ladder) for the candidate, the
/// incumbent, and the stock -Oz pipeline over the same modules, and promotes
/// only a candidate that
///   1. stays within fault budget,
///   2. beats (or ties within tolerance) the -Oz floor,
///   3. is not slower than -Oz on any module the ladder would serve it on:
///      where its best prefix is no larger than -Oz's output, its McaModel
///      cycles may exceed -Oz's by at most the same tolerance, and
///   4. does not regress the incumbent beyond tolerance.
/// The ladder picks by size alone, so a smaller-but-slower candidate would
/// otherwise be served wherever it wins on size. The cycles check is per
/// module: a mean-ratio cycles gate averages a few much slower outputs away
/// among many neutral ones and did not stop such promotions.

#include <cstddef>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "rl/mlp.h"

namespace posetrl {

class Module;

struct CanaryConfig {
  /// Candidate mean size ratio may exceed the -Oz mean ratio by at most
  /// this fraction (0.05 = 5% worse than -Oz still promotes — the serving
  /// ladder's -Oz rung backstops individual requests regardless). Also the
  /// per-module cycles tolerance against -Oz, where the ladder has no
  /// backstop.
  double oz_tolerance = 0.05;
  /// Candidate mean size ratio may exceed the incumbent's by at most this
  /// fraction. Negative forces strict improvement.
  double incumbent_tolerance = 0.02;
  /// Contained faults the candidate may incur across all evaluation
  /// rollouts before being rejected outright.
  std::size_t max_faults = 4;
};

/// One evaluation rollout's outcome.
struct CanaryRollout {
  double base_size = 0.0;
  double best_size = 0.0;  ///< Best-prefix modeled size under the policy.
  double best_cycles = 0.0;  ///< McaModel cycles of that best prefix.
  std::size_t faults = 0;
};

/// Full gate verdict.
struct CanaryReport {
  bool accepted = false;
  std::string reason;  ///< Human-readable verdict ("ok" when accepted).
  std::size_t holdout_modules = 0;
  std::size_t shadow_modules = 0;
  /// Mean best-prefix size ratios (size / base) over all evaluated modules.
  double candidate_ratio = 0.0;
  double incumbent_ratio = 0.0;
  double oz_ratio = 0.0;          ///< Over modules where -Oz completed.
  std::size_t oz_completed = 0;   ///< Modules whose sandboxed -Oz ran clean.
  /// Modules where the candidate's best prefix would be served (no larger
  /// than -Oz's output) but models more cycles than -Oz beyond tolerance,
  /// and the worst such cycles ratio (candidate / -Oz).
  std::size_t slower_than_oz = 0;
  double worst_oz_cycles_ratio = 0.0;
  std::size_t candidate_faults = 0;
  std::size_t incumbent_faults = 0;
  double eval_ms = 0.0;
};

/// Sandboxed greedy rollout of \p net on \p program; returns best-prefix
/// size and cycles, base size, and contained-fault count. Mirrors the serving ladder's
/// rollout semantics (greedy masked argmax, quarantine-aware).
CanaryRollout canaryRollout(const Mlp& net, const Module& program,
                            const std::vector<SubSequence>& actions,
                            const EnvConfig& env);

/// Runs the full gate: candidate vs incumbent vs -Oz over holdout + shadow
/// modules (every rollout step runs sandboxed, as every environment step
/// does). Null entries in the module lists are skipped.
CanaryReport runCanary(const Mlp& candidate, const Mlp& incumbent,
                       const std::vector<const Module*>& holdout,
                       const std::vector<const Module*>& shadow,
                       const std::vector<SubSequence>& actions,
                       const EnvConfig& env, const CanaryConfig& config);

}  // namespace posetrl
