#include "core/environment.h"

#include "ir/clone.h"
#include "ir/module.h"
#include "support/error.h"

namespace posetrl {

PhaseOrderEnv::PhaseOrderEnv(const Module& program,
                             const std::vector<SubSequence>& actions,
                             EnvConfig config)
    : config_(config),
      actions_(&actions),
      working_(cloneModule(program)),
      size_model_(TargetInfo::forArch(config.arch)),
      mca_model_(TargetInfo::forArch(config.arch)),
      embedder_(config.embedding),
      embed_cache_(config.embed_cache),
      noop_actions_(actions.size(), false),
      quarantine_(actions.size(), config.quarantine_threshold) {
  POSETRL_CHECK(!actions.empty(), "environment needs a non-empty action space");
  // The working module starts out pristine: capture that content once (every
  // reset() after the first restores it in place) and take the reward
  // denominators and the pristine embedding key from it. reset() reuses all
  // three, so none of these walks runs again for this environment.
  pristine_snapshot_.capture(*working_);
  pristine_stamp_ = working_->contentStamp();
  base_size_ = size_model_.objectBytes(*working_);
  base_cycles_ = mca_model_.moduleEstimate(*working_).weighted_cycles;
  POSETRL_CHECK(base_size_ > 0.0, "program has zero base size");
  pristine_embed_key_ = EmbedCache::moduleHash(*working_);
  embed_key_stamp_ = pristine_stamp_;
  embed_key_ = pristine_embed_key_;
}

PhaseOrderEnv::~PhaseOrderEnv() = default;

Embedding PhaseOrderEnv::reset() {
  if (started_) {
    const ModuleSnapshot::RestoreResult restored =
        pristine_snapshot_.restoreInto(*working_);
    // Restored blocks/instructions are new objects; the analysis cache's
    // generation-stamped entries self-invalidate lazily on their next
    // query, but an armed contract boundary fingerprints content that no
    // longer exists and must be disarmed now.
    analysis_.disarmBoundary();
    if (!restored.symbols_preserved) verifier_.clearCache();
    // The restore reverts the content stamp along with the content, so the
    // stamp-keyed embedding memo stays coherent — no invalidation needed.
  }
  started_ = true;
  last_size_ = base_size_;
  last_cycles_ = base_cycles_;
  metrics_stamp_ = working_->contentStamp();
  steps_in_episode_ = 0;
  return embedWorking();
}

Embedding PhaseOrderEnv::embedWorking() {
  if (!config_.cache_embeddings) {
    if (config_.state_kind == StateKind::StaticFeatures) {
      return extractStaticFeatures(*working_, analysis_);
    }
    return embedder_.embedProgram(*working_);
  }
  // O(1) cache keys on repeats: every mutation path bumps the module's
  // content stamp (and every rollback reverts it), so an unchanged stamp
  // proves the structural hash is unchanged. Only stamp changes pay the
  // O(instructions) hash walk — and nothing here ever prints the module.
  const std::uint64_t stamp = working_->contentStamp();
  if (embed_key_stamp_ != stamp) {
    // Pristine content (reset() reverted to it) has its key already.
    embed_key_ = stamp == pristine_stamp_ ? pristine_embed_key_
                                          : EmbedCache::moduleHash(*working_);
    embed_key_stamp_ = stamp;
  }
  if (config_.state_kind == StateKind::StaticFeatures) {
    return embed_cache_.embedWithKeyed(
        embed_key_, *working_, [this](const Module&) {
          return extractStaticFeatures(*working_, analysis_);
        });
  }
  return embed_cache_.embedKeyed(embed_key_, *working_, embedder_);
}

SandboxConfig sandboxConfigFor(const EnvConfig& config) {
  SandboxConfig sc = config.sandbox;
  sc.verify = config.verify_actions;
  sc.contracts = config.check_contracts;
  sc.oracle = config.oracle_actions;
  return sc;
}

SandboxConfig PhaseOrderEnv::effectiveSandboxConfig() {
  SandboxConfig sc = sandboxConfigFor(config_);
  // Between-action work in this environment is read-only (state extraction,
  // reward models) and every restore path clears or self-invalidates the
  // affected caches, so the verifier skip cache and the armed boundary
  // snapshot stay warm across steps.
  sc.fast_verifier = &verifier_;
  sc.trust_armed_boundary = true;
  sc.snapshot_scratch = &step_snapshot_;
  return sc;
}

PhaseOrderEnv::StepResult PhaseOrderEnv::step(std::size_t index) {
  POSETRL_CHECK(started_, "step() before reset()");
  POSETRL_CHECK(index < actions_->size(), "action index out of range");

  // Install this environment's analysis cache as the ambient manager for
  // the duration of the step: the sandbox's fast verifier and contract
  // checker, any analysis-using pass, and the static-feature extractor all
  // hit the same per-function cache, which survives across steps for
  // functions the applied passes did not touch.
  AnalysisScope analysis_scope(analysis_);

  // A memo hit is a proven no-op on exactly this content: the metrics and
  // state below come from the stamp-keyed caches unchanged.
  if (!knownNoop(index)) {
    const std::uint64_t stamp = working_->contentStamp();
    const std::uint64_t generation = working_->irGeneration();
    SandboxOutcome out = runActionSandboxed(
        working_, (*actions_)[index].passes, effectiveSandboxConfig());
    if (out.ok && config_.check_contracts &&
        working_->contentStamp() == stamp) {
      // The contract checker vouched for every pass's `changed`, so an
      // unchanged stamp proves the action a no-op at this key.
      if (noop_stamp_ != stamp || noop_generation_ != generation) {
        noop_actions_.assign(noop_actions_.size(), false);
        noop_stamp_ = stamp;
        noop_generation_ = generation;
      }
      noop_actions_[index] = true;
    }
    if (!out.ok) {
      // The sandbox already rolled the working module back in place (same
      // Module object, content stamp reverted) and handled cache hygiene:
      // the armed boundary is disarmed, the analysis cache self-invalidates
      // via generation stamps, and the verifier's pointer-keyed skip cache
      // was cleared iff symbols were recreated. The episode continues with
      // a penalized reward and the fault goes on this (program, action)
      // pair's quarantine record.
      // Deadline expiry is the caller's clock running out, not the action's
      // misbehaviour — it is contained like any fault but never quarantines.
      ++faults_;
      if (out.fault.kind != FaultKind::DeadlineExpired) {
        quarantine_.recordFault(index);
      }
      ++steps_in_episode_;
      StepResult result;
      // The rollback restored the pre-step module bytes, so with caching on
      // this re-embedding is a guaranteed hit.
      result.state = embedWorking();
      result.reward = config_.fault_penalty;
      result.done = steps_in_episode_ >= config_.episode_length;
      result.faulted = true;
      result.fault = std::move(out.fault);
      result.fault.action = index;
      return result;
    }
  }

  // Reward-model metrics, memoized on the content stamp: an action the
  // contract checker verified as a no-op left the module bytes untouched,
  // so its size/cycle deltas are exactly zero — skip both model walks.
  double size = last_size_;
  double cycles = last_cycles_;
  if (working_->contentStamp() != metrics_stamp_) {
    size = size_model_.objectBytes(*working_);
    cycles = mca_model_.moduleEstimate(*working_).weighted_cycles;
    metrics_stamp_ = working_->contentStamp();
  }

  // Paper Eqns 2 & 3: deltas between consecutive states, normalized by the
  // unoptimized program's metrics. The throughput component is expressed as
  // estimated-cycle reduction relative to the unoptimized cycles — the
  // exact mirror of Eqn 2 — so both components live on the same [0,1]-ish
  // scale and the paper's α=10 > β=5 ordering genuinely weights size more.
  const double r_binsize = (last_size_ - size) / base_size_;
  const double r_throughput =
      base_cycles_ > 0.0 ? (last_cycles_ - cycles) / base_cycles_ : 0.0;
  const double reward =
      config_.alpha * r_binsize + config_.beta * r_throughput;  // Eqn 1.

  last_size_ = size;
  last_cycles_ = cycles;
  ++steps_in_episode_;

  StepResult result;
  result.state = embedWorking();
  result.reward = reward;
  result.done = steps_in_episode_ >= config_.episode_length;
  return result;
}

bool PhaseOrderEnv::knownNoop(std::size_t index) const {
  // An already-expired deadline goes through the sandbox, which reports it.
  return noop_actions_[index] && noop_stamp_ == working_->contentStamp() &&
         noop_generation_ == working_->irGeneration() &&
         !config_.sandbox.deadline.expired();
}

double PhaseOrderEnv::currentSize() const { return last_size_; }

Module& PhaseOrderEnv::workingModule() {
  POSETRL_CHECK(started_, "workingModule() before reset()");
  // Non-const access may mutate the module behind the environment's back;
  // bump the stamp so no stamp-keyed memo (embedding key, reward metrics,
  // no-op steps) serves a stale result.
  working_->bumpContentStamp();
  return *working_;
}

const Module& PhaseOrderEnv::currentModule() const {
  POSETRL_CHECK(started_, "currentModule() before reset()");
  return *working_;
}

}  // namespace posetrl
