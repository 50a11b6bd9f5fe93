#include "replay.h"

#include <algorithm>
#include <thread>

#include "core/oz_sequence.h"
#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/structural_hash.h"
#include "passes/pass.h"
#include "rl/replay_buffer.h"
#include "serve/service.h"
#include "support/arena.h"
#include "support/rng.h"

using namespace posetrl;

namespace e2e {

namespace {

/// Runs \p f inside a span and returns the span's duration in us.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& f,
             std::uint64_t request = 0) {
  const Tracer::Id id = tracer.begin(name, request);
  f();
  return tracer.end(id);
}

}  // namespace

void TracedTrainRun::reserve(std::size_t steps) {
  programs.reserve(steps);
  episode_end.reserve(steps);
  actions.reserve(steps);
  step_us.reserve(steps);
}

void tracedTrainLoop(const std::vector<const Module*>& corpus,
                     const TrainConfig& config, Tracer& tracer,
                     TracedTrainRun& run) {
  run.agent = std::make_unique<DoubleDqn>(config.agent);
  DoubleDqn& agent = *run.agent;
  const std::vector<SubSequence>& actions = resolveTrainActions(config);
  std::vector<std::unique_ptr<PhaseOrderEnv>> envs(corpus.size());
  Rng rng(config.seed);
  std::size_t steps = 0;
  double reward_sum = 0.0;
  while (steps < config.total_steps) {
    const std::size_t pi = rng.nextBelow(corpus.size());
    SpanGuard episode_span(&tracer, "core.episode");
    if (envs[pi] == nullptr) {
      timed(tracer, "core.env_ctor", [&] {
        envs[pi] =
            std::make_unique<PhaseOrderEnv>(*corpus[pi], actions, config.env);
      });
    } else {
      ++run.repeated_episodes;
    }
    PhaseOrderEnv& env = *envs[pi];
    run.programs.push_back(pi);
    run.step_us.push_back(0.0);
    Embedding state;
    timed(tracer, "core.env_reset", [&] { state = env.reset(); });
    double episode_reward = 0.0;
    bool done = false;
    std::vector<Transition> episode;
    while (!done && steps < config.total_steps) {
      std::size_t action = 0;
      timed(tracer, "rl.act", [&] {
        action = agent.act(state, /*explore=*/true, &env.actionMask());
      });
      PhaseOrderEnv::StepResult sr;
      run.step_us.back() +=
          timed(tracer, "core.env_step", [&] { sr = env.step(action); });
      run.actions.push_back(action);
      if (sr.faulted) {
        ++run.stats.faults;
        ++run.stats.faults_by_kind[faultKindName(sr.fault.kind)];
        ++run.faulted_steps;
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
    timed(tracer, "rl.observe", [&] {
      if (config.agent.mc_returns) {
        annotateMonteCarloReturns(episode, config.agent.gamma);
      }
      for (Transition& t : episode) agent.observe(std::move(t));
    });
    run.stats.episode_rewards.push_back(episode_reward);
    reward_sum += episode_reward;
    ++run.stats.episodes;
    run.episode_end.push_back(steps);
  }
  for (const auto& env : envs) {
    if (env == nullptr) continue;
    run.stats.analysis.accumulate(env->analysisStats());
    run.stats.embed_cache.hits += env->embedCacheStats().hits;
    run.stats.embed_cache.misses += env->embedCacheStats().misses;
  }
  run.stats.steps = steps;
  run.stats.mean_episode_reward =
      run.stats.episodes > 0
          ? reward_sum / static_cast<double>(run.stats.episodes)
          : 0.0;
}

ShadowEnv::ShadowEnv(const Module& program, const EnvConfig& config)
    : config_(config),
      work_(cloneModule(program)),
      probe_(cloneModule(program)),
      size_(TargetInfo::forArch(config.arch)),
      mca_(TargetInfo::forArch(config.arch)),
      embedder_(config.embedding),
      cache_(config.embed_cache) {}

SandboxConfig ShadowEnv::sandboxConfig() {
  // PhaseOrderEnv::effectiveSandboxConfig, field for field.
  SandboxConfig sc = config_.sandbox;
  sc.verify = config_.verify_actions;
  sc.contracts = config_.check_contracts;
  sc.oracle = config_.oracle_actions;
  sc.fast_verifier = &work_verifier_;
  sc.trust_armed_boundary = true;
  sc.snapshot_scratch = &work_scratch_;
  return sc;
}

void ShadowEnv::embed() {
  const std::uint64_t stamp = work_->contentStamp();
  if (!key_valid_ || key_stamp_ != stamp) {
    key_ = EmbedCache::moduleHash(*work_);
    key_stamp_ = stamp;
    key_valid_ = true;
  }
  sink_ += cache_.embedKeyed(key_, *work_, embedder_).front();
}

void ShadowEnv::reset(Tracer& tracer) {
  if (!started_) {
    work_pristine_.capture(*work_);
    probe_pristine_.capture(*probe_);
    started_ = true;
  } else {
    timed(tracer, "ir.snapshot_restore", [&] {
      if (!work_pristine_.restoreInto(*work_).symbols_preserved) {
        work_verifier_.clearCache();
      }
      work_am_.disarmBoundary();
    });
    if (!probe_pristine_.restoreInto(*probe_).symbols_preserved) {
      probe_verifier_.clearCache();
    }
    probe_am_.disarmBoundary();
  }
  metrics_stamp_ = work_->contentStamp();
  embed();
}

bool ShadowEnv::step(const std::vector<std::string>& passes, Tracer& tracer,
                     StepCounts& counts) {
  SandboxOutcome out;
  counts.attributed_us += timed(tracer, "core.shadow_step", [&] {
    AnalysisScope scope(work_am_);
    timed(tracer, "faults.sandbox",
          [&] { out = runActionSandboxed(work_, passes, sandboxConfig()); });
    if (out.ok && work_->contentStamp() != metrics_stamp_) {
      timed(tracer, "target.size",
            [&] { sink_ += size_.objectBytes(*work_); });
      timed(tracer, "target.mca",
            [&] { sink_ += mca_.moduleEstimate(*work_).weighted_cycles; });
      metrics_stamp_ = work_->contentStamp();
    }
    timed(tracer, "embed.embed", [&] { embed(); });
  });
  ++counts.steps;
  if (!out.ok) ++counts.faults;
  if (out.ok && !out.changed) ++counts.noops;
  return out.ok;
}

void ShadowEnv::probe(const std::vector<std::string>& passes,
                      Tracer& tracer) {
  // The sandbox's time, split the way it spends it: a snapshot capture
  // (skipped when the last one still matches, as the sandbox does), then
  // each pass followed by the fast verifier.
  timed(tracer, "ir.snapshot_capture", [&] {
    if (!probe_scratch_.matches(*probe_)) probe_scratch_.capture(*probe_);
  });
  AnalysisScope scope(probe_am_);
  ArenaScope arena(probe_->arena());
  bool changed = false;
  for (const std::string& pass : passes) {
    timed(tracer, "passes.run",
          [&] { changed |= runPassSequence(*probe_, {pass}); });
    timed(tracer, "analysis.verify",
          [&] { sink_ += probe_verifier_.verify(*probe_, probe_am_).ok(); });
  }
  if (changed) probe_->bumpContentStamp();
}

void ShadowEnv::replay(const std::vector<SubSequence>& space,
                       std::span<const std::size_t> actions, Tracer& tracer,
                       StepCounts& counts, std::uint64_t expected_hash) {
  // All sandboxed steps first, then the probe, so neither pollutes the
  // other's caches between steps.
  reset(tracer);
  std::vector<bool> ok;
  for (const std::size_t a : actions) {
    ok.push_back(step(space[a].passes, tracer, counts));
  }
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (ok[i]) probe(space[actions[i]].passes, tracer);
  }
  const std::uint64_t hash = moduleContentHash(*work_);
  ++counts.replays;
  if (moduleContentHash(*probe_) != hash ||
      (expected_hash != 0 && hash != expected_hash)) {
    ++counts.diverged;
  }
}

std::size_t replayEpisodes(const std::vector<const Module*>& corpus,
                           const TracedTrainRun& run,
                           const TrainConfig& config, Tracer& tracer,
                           double budget_s, StepCounts& counts) {
  const std::vector<SubSequence>& actions = resolveTrainActions(config);
  const std::span<const std::size_t> all(run.actions);
  std::vector<std::unique_ptr<ShadowEnv>> shadows(corpus.size());
  const auto t0 = Clock::now();
  std::size_t replayed = 0;
  for (std::size_t begin = 0; replayed < run.programs.size();
       begin = run.episode_end[replayed++]) {
    if (replayed > 0 && secondsSince(t0) >= budget_s) break;
    std::unique_ptr<ShadowEnv>& shadow = shadows[run.programs[replayed]];
    if (shadow == nullptr) {
      shadow = std::make_unique<ShadowEnv>(*corpus[run.programs[replayed]],
                                           config.env);
    }
    shadow->replay(actions,
                   all.subspan(begin, run.episode_end[replayed] - begin),
                   tracer, counts);
  }
  return replayed;
}

RequestReplay replayRequest(const Module& program, const DoubleDqn& agent,
                            const std::vector<SubSequence>& actions,
                            const EnvConfig& config,
                            const std::vector<bool>& blocked, Tracer& tracer,
                            std::uint64_t request, StepCounts& counts) {
  const ServeConfig service;  // retry policy of CompileService::process
  RequestReplay out;
  SpanGuard request_span(&tracer, "serve.replay", request);
  std::unique_ptr<PhaseOrderEnv> env;
  out.attributed_us += timed(tracer, "core.env_ctor", [&] {
    env = std::make_unique<PhaseOrderEnv>(program, actions, config);
  });
  Embedding state;
  out.attributed_us +=
      timed(tracer, "core.env_reset", [&] { state = env->reset(); });
  double best_size = env->currentSize();
  std::vector<std::unique_ptr<Module>> kept;
  std::vector<std::size_t> stepped;
  std::vector<bool> exhausted(actions.size(), false);
  bool done = false;
  while (!done) {
    std::vector<bool> mask = env->actionMask();
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask[i] = mask[i] || exhausted[i] || (i < blocked.size() && blocked[i]);
    }
    if (std::find(mask.begin(), mask.end(), false) == mask.end()) break;
    std::size_t action = 0;
    out.attributed_us += timed(tracer, "rl.act", [&] {
      action = agent.actGreedy(state, &mask);
    });
    PhaseOrderEnv::StepResult sr;
    for (std::size_t attempt = 0;; ++attempt) {
      out.attributed_us +=
          timed(tracer, "core.env_step", [&] { sr = env->step(action); });
      stepped.push_back(action);
      if (!sr.faulted || sr.done || attempt >= service.max_retries) break;
      out.attributed_us += timed(tracer, "serve.backoff", [&] {
        std::this_thread::sleep_for(service.backoff_base * (1 << attempt));
      });
    }
    state = std::move(sr.state);
    done = sr.done;
    if (sr.faulted) {
      exhausted[action] = true;
      continue;
    }
    if (env->currentSize() < best_size) {
      // The service keeps a copy of every improving prefix.
      best_size = env->currentSize();
      out.attributed_us += timed(tracer, "ir.clone", [&] {
        kept.push_back(cloneModule(env->workingModule()));
      });
      ++out.clones;
    }
  }
  out.attributed_us += timed(tracer, "ir.clone", [&] {
    kept.push_back(cloneModule(env->workingModule()));
  });
  std::unique_ptr<Module> oz;
  out.attributed_us +=
      timed(tracer, "ir.clone", [&] { oz = cloneModule(program); });
  out.clones += 2;
  out.attributed_us += timed(tracer, "passes.oz", [&] {
    // CompileService's -Oz rung: the sandboxed pipeline, then its size.
    SandboxConfig sc = config.sandbox;
    sc.verify = config.verify_actions;
    sc.oracle = config.oracle_actions;
    runActionSandboxed(oz, ozPassNames(), sc);
    SizeModel(TargetInfo::forArch(config.arch)).objectBytes(*oz);
  });
  ShadowEnv shadow(program, config);
  shadow.replay(actions, stepped, tracer, counts,
                moduleContentHash(*kept.back()));
  out.analysis = env->analysisStats();
  out.embed = env->embedCacheStats();
  return out;
}

}  // namespace e2e
