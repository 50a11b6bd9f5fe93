#include "online/canary.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "core/policy.h"
#include "ir/module.h"
#include "rl/dqn.h"
#include "target/mca_model.h"
#include "target/size_model.h"
#include "target/target_info.h"

namespace posetrl {

CanaryRollout canaryRollout(const Mlp& net, const Module& program,
                            const std::vector<SubSequence>& actions,
                            const EnvConfig& env) {
  PhaseOrderEnv rollout_env(program, actions, env);
  Embedding state = rollout_env.reset();
  CanaryRollout out;
  out.base_size = rollout_env.baseSize();
  out.best_size = out.base_size;
  out.best_cycles = rollout_env.baseCycles();
  for (int step = 0; step < env.episode_length; ++step) {
    const std::vector<bool>& mask = rollout_env.actionMask();
    if (std::all_of(mask.begin(), mask.end(), [](bool b) { return b; })) {
      break;  // everything quarantined on this program
    }
    const std::size_t action = maskedArgmax(net.forward(state), &mask);
    const PhaseOrderEnv::StepResult sr = rollout_env.step(action);
    state = sr.state;
    if (sr.faulted) ++out.faults;
    if (rollout_env.currentSize() < out.best_size) {
      out.best_size = rollout_env.currentSize();
      out.best_cycles = rollout_env.currentCycles();
    }
    if (sr.done) break;
  }
  return out;
}

namespace {

struct OzMetrics {
  double size = -1.0;
  double cycles = 0.0;
};

/// Modeled size and cycles of \p program after a sandboxed stock -Oz run;
/// size is negative when the -Oz pipeline itself faulted (the module is then
/// excluded from the floor comparison — matching the serving ladder, which
/// also skips the -Oz rung when it faults). Same sandbox switches as the
/// serving ladder's rung.
OzMetrics sandboxedOz(const Module& program, const EnvConfig& env,
                      const SizeModel& size_model, const McaModel& mca_model) {
  const OzRun oz = runOzSandboxed(program, sandboxConfigFor(env));
  if (oz.output == nullptr) return {};
  return {size_model.objectBytes(*oz.output),
          mca_model.moduleEstimate(*oz.output).weighted_cycles};
}

}  // namespace

CanaryReport runCanary(const Mlp& candidate, const Mlp& incumbent,
                       const std::vector<const Module*>& holdout,
                       const std::vector<const Module*>& shadow,
                       const std::vector<SubSequence>& actions,
                       const EnvConfig& env, const CanaryConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  CanaryReport report;
  const SizeModel size_model(TargetInfo::forArch(env.arch));
  const McaModel mca_model(TargetInfo::forArch(env.arch));

  std::vector<const Module*> modules;
  for (const Module* m : holdout) {
    if (m != nullptr) {
      modules.push_back(m);
      ++report.holdout_modules;
    }
  }
  for (const Module* m : shadow) {
    if (m != nullptr) {
      modules.push_back(m);
      ++report.shadow_modules;
    }
  }
  if (modules.empty()) {
    report.reason = "no evaluation modules";
    return report;
  }

  double cand_ratio_sum = 0.0, inc_ratio_sum = 0.0, oz_ratio_sum = 0.0;
  for (const Module* m : modules) {
    const CanaryRollout cand = canaryRollout(candidate, *m, actions, env);
    const CanaryRollout inc = canaryRollout(incumbent, *m, actions, env);
    report.candidate_faults += cand.faults;
    report.incumbent_faults += inc.faults;
    cand_ratio_sum += cand.best_size / cand.base_size;
    inc_ratio_sum += inc.best_size / inc.base_size;
    const OzMetrics oz = sandboxedOz(*m, env, size_model, mca_model);
    if (oz.size >= 0.0) {
      oz_ratio_sum += oz.size / cand.base_size;
      ++report.oz_completed;
      // The ladder serves the rollout unless -Oz is strictly smaller.
      if (cand.best_size <= oz.size && oz.cycles > 0.0) {
        const double cycles_ratio = cand.best_cycles / oz.cycles;
        if (cycles_ratio > 1.0 + config.oz_tolerance) {
          ++report.slower_than_oz;
          report.worst_oz_cycles_ratio =
              std::max(report.worst_oz_cycles_ratio, cycles_ratio);
        }
      }
    }
  }
  const double n = static_cast<double>(modules.size());
  report.candidate_ratio = cand_ratio_sum / n;
  report.incumbent_ratio = inc_ratio_sum / n;
  report.oz_ratio = report.oz_completed > 0
                        ? oz_ratio_sum / static_cast<double>(report.oz_completed)
                        : 0.0;
  report.eval_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  std::ostringstream why;
  if (report.candidate_faults > config.max_faults) {
    why << "fault budget exceeded: " << report.candidate_faults << " > "
        << config.max_faults;
    report.reason = why.str();
    return report;
  }
  if (report.oz_completed > 0 &&
      report.candidate_ratio >
          report.oz_ratio * (1.0 + config.oz_tolerance)) {
    why << "candidate mean ratio " << report.candidate_ratio
        << " misses the -Oz floor " << report.oz_ratio << " (tolerance "
        << config.oz_tolerance << ")";
    report.reason = why.str();
    return report;
  }
  if (report.slower_than_oz > 0) {
    why << "candidate is slower than -Oz on " << report.slower_than_oz
        << " module(s) it would be served on (worst cycles ratio "
        << report.worst_oz_cycles_ratio << ", tolerance "
        << config.oz_tolerance << ")";
    report.reason = why.str();
    return report;
  }
  if (report.candidate_ratio >
      report.incumbent_ratio * (1.0 + config.incumbent_tolerance)) {
    why << "candidate mean ratio " << report.candidate_ratio
        << " regresses the incumbent " << report.incumbent_ratio
        << " (tolerance " << config.incumbent_tolerance << ")";
    report.reason = why.str();
    return report;
  }
  report.accepted = true;
  report.reason = "ok";
  return report;
}

}  // namespace posetrl
