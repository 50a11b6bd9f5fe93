#include "core/parallel_trainer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "ir/module.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace posetrl {

namespace {

/// ε-greedy selection against a read-only policy snapshot — the actor-side
/// mirror of DoubleDqn::act (same draw order: one Bernoulli, then either a
/// uniform action draw or a greedy forward), so the exploration statistics
/// match the agent's even though the agent never sees these calls.
std::size_t selectAction(const Mlp& policy, const std::vector<double>& state,
                         const std::vector<bool>& blocked, double eps,
                         Rng& rng) {
  const std::size_t num_actions = policy.outputSize();
  const bool any_blocked =
      std::find(blocked.begin(), blocked.end(), true) != blocked.end();
  if (rng.nextBool(eps)) {
    if (!any_blocked) return rng.nextBelow(num_actions);
    std::vector<std::size_t> allowed;
    for (std::size_t i = 0; i < num_actions; ++i) {
      if (!blocked[i]) allowed.push_back(i);
    }
    POSETRL_CHECK(!allowed.empty(), "all actions blocked");
    return allowed[rng.nextBelow(allowed.size())];
  }
  const std::vector<double> q = policy.forward(state);
  std::size_t best = q.size();
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (any_blocked && blocked[i]) continue;
    if (best == q.size() || q[i] > q[best]) best = i;
  }
  POSETRL_CHECK(best < q.size(), "all actions blocked");
  return best;
}

/// One rollout actor: a private environment cache plus two private RNG
/// streams. Lives for the whole run; runs one episode per round.
struct Actor {
  Actor(std::size_t index, std::size_t corpus_size, std::uint64_t prog_seed,
        std::uint64_t explore_seed)
      : index(index),
        envs(corpus_size),
        prog_rng(Rng::forStream(prog_seed, index + 1)),
        explore_rng(Rng::forStream(explore_seed, index + 1)) {}

  std::size_t index;
  std::vector<std::unique_ptr<PhaseOrderEnv>> envs;
  Rng prog_rng;
  Rng explore_rng;

  // Per-round results, read by the learner after the round barrier.
  std::size_t steps = 0;
  bool ran_episode = false;
  double episode_reward = 0.0;
  std::size_t faults = 0;
  std::map<std::string, std::size_t> faults_by_kind;

  /// Rolls one episode of at most \p quota steps against \p policy with the
  /// frozen \p eps, pushing the finished episode into this actor's shard.
  void runRound(const std::vector<const Module*>& corpus,
                const std::vector<SubSequence>& actions,
                const TrainConfig& config, const Mlp& policy, double eps,
                std::size_t quota, ShardedReplayBuffer& replay) {
    steps = 0;
    ran_episode = false;
    episode_reward = 0.0;
    faults = 0;
    faults_by_kind.clear();
    if (quota == 0) return;

    const std::size_t pi = prog_rng.nextBelow(corpus.size());
    if (envs[pi] == nullptr) {
      envs[pi] =
          std::make_unique<PhaseOrderEnv>(*corpus[pi], actions, config.env);
    }
    PhaseOrderEnv& env = *envs[pi];
    std::vector<double> state = env.reset();
    std::vector<Transition> episode;
    bool done = false;
    while (!done && steps < quota) {
      const std::size_t action =
          selectAction(policy, state, env.actionMask(), eps, explore_rng);
      PhaseOrderEnv::StepResult sr = env.step(action);
      if (sr.faulted) {
        ++faults;
        ++faults_by_kind[faultKindName(sr.fault.kind)];
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
    if (config.agent.mc_returns) {
      annotateMonteCarloReturns(episode, config.agent.gamma);
    }
    replay.pushEpisode(index, std::move(episode));
    ran_episode = true;
  }
};

}  // namespace

TrainResult runParallelTraining(const std::vector<const Module*>& corpus,
                                const TrainConfig& config) {
  POSETRL_CHECK(!corpus.empty(), "training corpus is empty");
  POSETRL_CHECK(config.num_actors >= 2,
                "runParallelTraining needs num_actors >= 2");
  if (!config.checkpoint_path.empty()) {
    raiseError(
        "checkpointing is not supported with num_actors > 1; drop "
        "--checkpoint or train with a single actor");
  }
  const std::vector<SubSequence>& actions = resolveTrainActions(config);

  TrainResult result;
  result.agent = std::make_unique<DoubleDqn>(config.agent);
  DoubleDqn& agent = *result.agent;

  const std::size_t num_actors = config.num_actors;
  // Two pools for the whole run. The actors run as the parts of one fork on
  // a pool with one part per actor; they fork nothing themselves (their
  // greedy forward is the serial matVec). The learner's GEMMs and Adam fork
  // on a CPU-wide scope, so they never cut more parts than there are CPUs,
  // however many actors there are.
  WorkerPool actor_pool(num_actors);
  ParallelScope learner_scope;
  ShardedReplayBuffer replay(
      num_actors,
      std::max<std::size_t>(1, config.agent.replay_capacity / num_actors));
  Rng learner_rng = Rng::forStream(config.agent.seed, 0);

  std::vector<std::unique_ptr<Actor>> actors;
  actors.reserve(num_actors);
  for (std::size_t a = 0; a < num_actors; ++a) {
    actors.push_back(std::make_unique<Actor>(a, corpus.size(), config.seed,
                                             config.agent.seed));
  }

  const std::size_t episode_len =
      static_cast<std::size_t>(std::max(config.env.episode_length, 1));
  std::size_t steps = 0;
  std::size_t pending = 0;  // env steps not yet paid for with updates
  double reward_sum_all = 0.0;

  while (steps < config.total_steps) {
    // Snapshot the policy and freeze ε for the round; actors only ever read
    // these while the learner waits at the barrier.
    const Mlp policy = agent.onlineNet();
    const double eps = agent.epsilon();

    // Per-actor step quotas from the remaining budget: every actor gets a
    // full episode until the budget runs short, then actors fill in actor
    // order and the last active one truncates — total steps land exactly on
    // total_steps, mirroring the sequential loop's end-of-run truncation.
    const std::size_t remaining = config.total_steps - steps;
    std::vector<std::size_t> quotas(num_actors, 0);
    for (std::size_t a = 0; a < num_actors; ++a) {
      const std::size_t offset = a * episode_len;
      if (remaining > offset) {
        quotas[a] = std::min(episode_len, remaining - offset);
      }
    }

    // The actors run as the parts of one fork, actor a on the pool's part a;
    // an actor's exception is rethrown here, the lowest actor's first.
    actor_pool.run(num_actors, [&](std::size_t a) {
      actors[a]->runRound(corpus, actions, config, policy, eps, quotas[a],
                          replay);
    });

    // Merge in actor order — the only order the stats ever see, however the
    // threads were actually scheduled.
    std::size_t round_steps = 0;
    for (const auto& actor : actors) {
      round_steps += actor->steps;
      if (actor->ran_episode) {
        result.stats.episode_rewards.push_back(actor->episode_reward);
        reward_sum_all += actor->episode_reward;
        ++result.stats.episodes;
      }
      result.stats.faults += actor->faults;
      for (const auto& [kind, count] : actor->faults_by_kind) {
        result.stats.faults_by_kind[kind] += count;
      }
    }
    POSETRL_CHECK(round_steps > 0, "parallel training round made no progress");
    steps += round_steps;
    agent.noteExploreSteps(round_steps);

    // Sequential cadence: one batched update per train_every env steps, but
    // only once the replay warmup is met — steps taken before warmup are
    // skipped, not deferred, exactly like DoubleDqn::observe.
    pending += round_steps;
    if (replay.size() < agent.warmupThreshold()) {
      pending = 0;
    } else {
      const std::size_t train_every = std::max<std::size_t>(
          1, config.agent.train_every);
      while (pending >= train_every) {
        agent.trainOnBatch(
            replay.sample(config.agent.batch_size, learner_rng));
        pending -= train_every;
      }
    }

    if (config.verbose) {
      std::fprintf(stderr,
                   "[train] round done: episodes %zu steps %zu eps %.3f\n",
                   result.stats.episodes, steps, agent.epsilon());
    }
  }

  result.stats.steps = steps;
  result.stats.mean_episode_reward =
      result.stats.episodes > 0
          ? reward_sum_all / static_cast<double>(result.stats.episodes)
          : 0.0;
  result.stats.final_epsilon = agent.epsilon();
  for (const auto& actor : actors) {
    for (const auto& env : actor->envs) {
      if (env != nullptr) {
        result.stats.quarantined_actions += env->quarantine().numQuarantined();
        result.stats.analysis.accumulate(env->analysisStats());
        const EmbedCacheStats& ec = env->embedCacheStats();
        result.stats.embed_cache.hits += ec.hits;
        result.stats.embed_cache.misses += ec.misses;
        result.stats.embed_cache.evictions += ec.evictions;
      }
    }
  }
  return result;
}

}  // namespace posetrl
