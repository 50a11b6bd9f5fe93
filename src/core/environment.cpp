#include "core/environment.h"

#include "ir/clone.h"
#include "ir/module.h"
#include "lint/instrumentation.h"
#include "passes/pass.h"
#include "support/error.h"

namespace posetrl {

PhaseOrderEnv::PhaseOrderEnv(const Module& program,
                             const std::vector<SubSequence>& actions,
                             EnvConfig config)
    : config_(config),
      actions_(&actions),
      pristine_(cloneModule(program)),
      size_model_(TargetInfo::forArch(config.arch)),
      mca_model_(TargetInfo::forArch(config.arch)),
      embedder_(config.embedding),
      embed_cache_(config.embed_cache),
      quarantine_(actions.size(), config.quarantine_threshold) {
  POSETRL_CHECK(!actions.empty(), "environment needs a non-empty action space");
  base_size_ = size_model_.objectBytes(*pristine_);
  base_cycles_ = mca_model_.moduleEstimate(*pristine_).weighted_cycles;
  base_throughput_ = mca_model_.moduleEstimate(*pristine_).throughput();
  POSETRL_CHECK(base_size_ > 0.0, "program has zero base size");
}

PhaseOrderEnv::~PhaseOrderEnv() = default;

Embedding PhaseOrderEnv::reset() {
  if (working_ == nullptr) {
    // First episode: materialize the working clone once and capture its
    // pristine content into a flat snapshot. Every later reset() restores
    // that snapshot in place instead of cloning — same Module object, same
    // Function/GlobalVariable objects, same interned constants.
    working_ = cloneModule(*pristine_);
    pristine_snapshot_.capture(*working_);
    analysis_.invalidateAll();
    verifier_.clearCache();
    embed_key_valid_ = false;
    pristine_embed_key_valid_ = false;
    // Reward-model metrics of the pristine state, computed once: every
    // later reset() restores bit-identical content (stamp reverts to
    // pristine_stamp_ as the proof), so these two O(instructions) walks
    // never run again on the reset path.
    pristine_stamp_ = working_->contentStamp();
    pristine_size_ = size_model_.objectBytes(*working_);
    const ThroughputEstimate est = mca_model_.moduleEstimate(*working_);
    pristine_cycles_ = est.weighted_cycles;
    pristine_throughput_ = est.throughput();
  } else {
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
  last_size_ = pristine_size_;
  last_cycles_ = pristine_cycles_;
  last_throughput_ = pristine_throughput_;
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
  if (!embed_key_valid_ || embed_key_stamp_ != stamp) {
    if (pristine_embed_key_valid_ && stamp == pristine_stamp_) {
      // reset() reverted to pristine content; its key is already known.
      embed_key_ = pristine_embed_key_;
    } else {
      embed_key_ = EmbedCache::moduleHash(*working_);
      if (stamp == pristine_stamp_) {
        pristine_embed_key_ = embed_key_;
        pristine_embed_key_valid_ = true;
      }
    }
    embed_key_stamp_ = stamp;
    embed_key_valid_ = true;
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
  POSETRL_CHECK(working_ != nullptr, "step() before reset()");
  POSETRL_CHECK(index < actions_->size(), "action index out of range");

  // Install this environment's analysis cache as the ambient manager for
  // the duration of the step: the sandbox's fast verifier and contract
  // checker, any analysis-using pass, and the static-feature extractor all
  // hit the same per-function cache, which survives across steps for
  // functions the applied passes did not touch.
  AnalysisScope analysis_scope(analysis_);

  if (config_.sandbox_actions) {
    SandboxOutcome out = runActionSandboxed(
        working_, (*actions_)[index].passes, effectiveSandboxConfig());
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
  } else if (config_.verify_actions) {
    // Instrumented run: a pass that breaks the IR aborts with its own name
    // instead of corrupting the reward signal steps later.
    InstrumentOptions iopts;
    iopts.verify = true;
    iopts.abort_on_failure = true;
    PassInstrumentation instr(iopts);
    runPassSequence(*working_, (*actions_)[index].passes, instr);
  } else {
    runPassSequence(*working_, (*actions_)[index].passes,
                    /*verify_each=*/false);
  }

  // Reward-model metrics, memoized on the content stamp: an action the
  // contract checker verified as a no-op left the module bytes untouched,
  // so its size/cycle deltas are exactly zero — skip both model walks.
  double size = last_size_;
  double cycles = last_cycles_;
  double throughput = last_throughput_;
  if (working_->contentStamp() != metrics_stamp_) {
    size = size_model_.objectBytes(*working_);
    const ThroughputEstimate est = mca_model_.moduleEstimate(*working_);
    cycles = est.weighted_cycles;
    throughput = est.throughput();
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
  last_throughput_ = throughput;
  ++steps_in_episode_;

  StepResult result;
  result.state = embedWorking();
  result.reward = reward;
  result.done = steps_in_episode_ >= config_.episode_length;
  return result;
}

double PhaseOrderEnv::currentSize() const { return last_size_; }
double PhaseOrderEnv::currentThroughput() const { return last_throughput_; }

Module& PhaseOrderEnv::workingModule() {
  POSETRL_CHECK(working_ != nullptr, "no working module before reset()");
  // Non-const access may mutate the module behind the environment's back;
  // bump the stamp so the embedding-key memo never serves a stale hash.
  working_->bumpContentStamp();
  return *working_;
}

const Module& PhaseOrderEnv::currentModule() const {
  POSETRL_CHECK(working_ != nullptr, "no working module before reset()");
  return *working_;
}

std::uint64_t PhaseOrderEnv::programHash() {
  if (!pristine_embed_key_valid_) {
    // Structural hashes agree across clones, so hashing the pristine copy
    // gives the working module's pristine key too.
    pristine_embed_key_ = EmbedCache::moduleHash(*pristine_);
    pristine_embed_key_valid_ = true;
  }
  return pristine_embed_key_;
}

}  // namespace posetrl
