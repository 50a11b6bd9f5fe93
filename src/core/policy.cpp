#include "core/policy.h"

#include "core/oz_sequence.h"
#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/module.h"
#include "passes/pass.h"

namespace posetrl {

PolicyRollout applyPolicy(const DoubleDqn& agent, const Module& program,
                          const std::vector<SubSequence>& actions,
                          const EnvConfig& config) {
  PhaseOrderEnv env(program, actions, config);
  Embedding state = env.reset();
  PolicyRollout rollout;
  bool done = false;
  while (!done) {
    // The quarantine mask blocks actions that already faulted repeatedly on
    // this program; actGreedy then falls back to the best unblocked Q.
    const std::vector<bool>& mask = env.actionMask();
    std::size_t available = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) ++available;
    }
    if (available == 0) {
      // Everything got quarantined mid-rollout: end the episode with the
      // best-so-far working module rather than letting actGreedy abort on
      // "all actions blocked" (mirrors CompileService::process).
      break;
    }
    const std::size_t action = agent.actGreedy(state, &mask);
    rollout.action_sequence.push_back(action);
    PhaseOrderEnv::StepResult sr = env.step(action);
    PolicyStep step;
    step.action = action;
    step.reward = sr.reward;
    step.faulted = sr.faulted;
    if (sr.faulted) {
      ++rollout.faults;
      step.fault = std::move(sr.fault);
    }
    rollout.steps.push_back(std::move(step));
    state = std::move(sr.state);
    done = sr.done;
  }
  rollout.size_bytes = env.currentSize();
  rollout.quarantined = env.quarantine().numQuarantined();
  rollout.optimized = cloneModule(env.workingModule());
  return rollout;
}

std::unique_ptr<Module> applyPipeline(
    const Module& program, const std::vector<std::string>& passes) {
  std::unique_ptr<Module> m = cloneModule(program);
  runPassSequence(*m, passes);
  return m;
}

OzRun runOzSandboxed(const Module& program, const SandboxConfig& sandbox) {
  std::unique_ptr<Module> oz = cloneModule(program);
  for (const auto& f : oz->functions()) f->resetNameCounters();
  const SandboxOutcome out = runActionSandboxed(oz, ozPassNames(), sandbox);
  OzRun run;
  if (out.ok) run.output = std::move(oz);
  run.fault = out.fault;
  return run;
}

}  // namespace posetrl
