#include "core/trainer.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/parallel_trainer.h"
#include "faults/checkpoint.h"
#include "ir/module.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace posetrl {

namespace {

/// Shared implementation of trainAgent/resumeTraining. When \p resume_from
/// is non-null the loop starts from the restored state instead of scratch.
TrainResult runTraining(const std::vector<const Module*>& corpus,
                        const TrainConfig& config,
                        const TrainerCheckpoint* resume_from) {
  POSETRL_CHECK(!corpus.empty(), "training corpus is empty");
  // The learner's GEMMs and Adam split across the idle cores for the length
  // of the run; the helpers are joined before this returns.
  ParallelScope pool;
  // Sweep the orphaned tmp a save interrupted mid-publish may have left —
  // the checkpoint itself is intact (rename is atomic), only debris remains.
  if (!config.checkpoint_path.empty()) gcCheckpointTmp(config.checkpoint_path);
  TrainResult result;
  result.agent = std::make_unique<DoubleDqn>(config.agent);
  DoubleDqn& agent = *result.agent;

  // One environment per program, constructed lazily and cached (the action
  // space must match the agent's head count).
  const std::vector<SubSequence>& actions = resolveTrainActions(config);

  std::vector<std::unique_ptr<PhaseOrderEnv>> envs(corpus.size());
  Rng rng(config.seed);

  std::size_t steps = 0;
  double reward_sum_all = 0.0;

  // Quarantine state restored from a checkpoint for environments that have
  // not been recreated yet; applied lazily at env construction.
  std::map<std::size_t, std::string> pending_quarantines;

  if (resume_from != nullptr) {
    steps = resume_from->steps;
    result.stats.steps = steps;
    result.stats.episodes = resume_from->episodes;
    result.stats.episode_rewards = resume_from->episode_rewards;
    for (double r : resume_from->episode_rewards) reward_sum_all += r;
    rng = resume_from->rng;
    {
      ScopedFaultTrap trap;  // corrupt agent payload -> FatalError
      std::istringstream is(resume_from->agent_blob);
      agent.loadCheckpoint(is);
    }
    for (const QuarantineSnapshot& q : resume_from->quarantines) {
      POSETRL_CHECK(q.program_index < corpus.size(),
                    "checkpoint quarantine for program ", q.program_index,
                    " outside the corpus");
      pending_quarantines[q.program_index] = q.blob;
    }
  }

  std::size_t last_checkpoint_steps = steps;
  const auto maybeCheckpoint = [&]() {
    if (config.checkpoint_path.empty()) return;
    // Interval-gated and only ever called at episode boundaries: a
    // checkpoint must never capture a mid-episode (or end-of-run truncated)
    // state, or a resumed run would diverge from the uninterrupted one.
    if (steps - last_checkpoint_steps < config.checkpoint_every_steps) return;
    TrainerCheckpoint ckpt;
    ckpt.steps = steps;
    ckpt.episodes = result.stats.episodes;
    ckpt.episode_rewards = result.stats.episode_rewards;
    ckpt.rng = rng;
    std::ostringstream agent_os;
    agent.saveCheckpoint(agent_os);
    ckpt.agent_blob = agent_os.str();
    for (std::size_t pi = 0; pi < envs.size(); ++pi) {
      std::string blob;
      if (envs[pi] != nullptr && envs[pi]->quarantine().totalFaults() > 0) {
        std::ostringstream qs;
        envs[pi]->quarantine().save(qs);
        blob = qs.str();
      } else if (auto it = pending_quarantines.find(pi);
                 it != pending_quarantines.end()) {
        blob = it->second;  // restored but untouched since resume
      }
      if (!blob.empty()) ckpt.quarantines.push_back({pi, std::move(blob)});
    }
    saveCheckpointFile(config.checkpoint_path, ckpt);
    last_checkpoint_steps = steps;
    ++result.stats.checkpoints_written;
  };

  while (steps < config.total_steps) {
    const std::size_t pi = rng.nextBelow(corpus.size());
    if (envs[pi] == nullptr) {
      envs[pi] = std::make_unique<PhaseOrderEnv>(*corpus[pi], actions,
                                                 config.env);
      if (auto it = pending_quarantines.find(pi);
          it != pending_quarantines.end()) {
        std::istringstream qs(it->second);
        envs[pi]->quarantine().load(qs);
        pending_quarantines.erase(it);
      }
    }
    PhaseOrderEnv& env = *envs[pi];
    Embedding state = env.reset();
    double episode_reward = 0.0;
    bool done = false;
    std::vector<Transition> episode;
    while (!done && steps < config.total_steps) {
      const std::size_t action =
          agent.act(state, /*explore=*/true, &env.actionMask());
      PhaseOrderEnv::StepResult sr = env.step(action);
      if (sr.faulted) {
        ++result.stats.faults;
        ++result.stats.faults_by_kind[faultKindName(sr.fault.kind)];
        if (config.verbose) {
          std::fprintf(stderr, "[train] contained %s\n",
                       sr.fault.str().c_str());
        }
      }
      Transition t;
      t.state = std::move(state);
      t.action = action;
      t.reward = sr.reward;
      t.next_state = sr.state;
      t.done = sr.done;
      episode.push_back(std::move(t));
      state = std::move(sr.state);
      episode_reward += sr.reward;
      done = sr.done;
      ++steps;
    }
    // Attach Monte-Carlo returns (discounted reward-to-go) when enabled,
    // then feed the episode into the replay memory.
    if (config.agent.mc_returns) {
      annotateMonteCarloReturns(episode, config.agent.gamma);
    }
    for (Transition& t : episode) agent.observe(std::move(t));
    result.stats.episode_rewards.push_back(episode_reward);
    reward_sum_all += episode_reward;
    ++result.stats.episodes;
    maybeCheckpoint();
    if (config.verbose && result.stats.episodes % 10 == 0) {
      std::fprintf(stderr,
                   "[train] episode %zu steps %zu eps %.3f reward %.3f\n",
                   result.stats.episodes, steps, agent.epsilon(),
                   episode_reward);
    }
  }
  result.stats.steps = steps;
  result.stats.mean_episode_reward =
      result.stats.episodes > 0
          ? reward_sum_all / static_cast<double>(result.stats.episodes)
          : 0.0;
  result.stats.final_epsilon = agent.epsilon();
  for (const auto& env : envs) {
    if (env != nullptr) {
      result.stats.quarantined_actions += env->quarantine().numQuarantined();
      result.stats.analysis.accumulate(env->analysisStats());
      const EmbedCacheStats& ec = env->embedCacheStats();
      result.stats.embed_cache.hits += ec.hits;
      result.stats.embed_cache.misses += ec.misses;
      result.stats.embed_cache.evictions += ec.evictions;
    }
  }
  return result;
}

}  // namespace

const std::vector<SubSequence>& resolveTrainActions(const TrainConfig& config) {
  const std::vector<SubSequence>& actions =
      config.actions != nullptr
          ? *config.actions
          : (config.agent.num_actions == manualSubSequences().size()
                 ? manualSubSequences()
                 : odgSubSequences());
  POSETRL_CHECK(actions.size() == config.agent.num_actions,
                "agent head count must match the action-space size");
  return actions;
}

TrainResult trainAgent(const std::vector<const Module*>& corpus,
                       const TrainConfig& config) {
  if (config.num_actors >= 2) return runParallelTraining(corpus, config);
  return runTraining(corpus, config, nullptr);
}

TrainResult resumeTraining(const std::vector<const Module*>& corpus,
                           const TrainConfig& config,
                           const std::string& checkpoint_path) {
  if (config.num_actors >= 2) {
    raiseError(
        "resume is not supported with num_actors > 1; checkpoints capture a "
        "single sequential trajectory");
  }
  const TrainerCheckpoint ckpt = loadCheckpointFile(checkpoint_path);
  return runTraining(corpus, config, &ckpt);
}

void saveAgentToFile(const DoubleDqn& agent, const std::string& path) {
  std::ostringstream os;
  agent.saveModel(os);
  writeFileAtomic(path, os.str());
}

void loadAgentFromFile(DoubleDqn& agent, const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) raiseError("cannot open model file: " + path);
  // Short or corrupt payloads raise FatalError (via the trap) instead of
  // aborting the process with half-loaded weights.
  ScopedFaultTrap trap;
  agent.loadModel(is);
}

}  // namespace posetrl
