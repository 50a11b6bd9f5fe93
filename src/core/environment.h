#pragma once

/// \file environment.h
/// The RL environment of Fig. 3: state = IR2Vec-style program embedding,
/// action = applying one pass sub-sequence with the optimizer, reward =
/// α·R_BinSize + β·R_Throughput (Eqns 1–3, α=10, β=5) where sizes come
/// from the object-size model and throughput from the llvm-mca analog.
///
/// Actions execute inside a fault sandbox (faults/sandbox.h): the working
/// module is snapshotted before every sub-sequence; a throwing, invariant-
/// breaking, IR-exploding or fuel-exhausting pass rolls back to the snapshot
/// and yields a penalized reward plus a structured FaultReport instead of
/// killing the run. Actions that fault repeatedly on this program are
/// quarantined (faults/quarantine.h) and masked out of later selections.

#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/fast_verifier.h"
#include "analysis/static_features.h"
#include "core/oz_sequence.h"
#include "embed/embed_cache.h"
#include "embed/embedder.h"
#include "faults/fault.h"
#include "faults/quarantine.h"
#include "faults/sandbox.h"
#include "ir/snapshot.h"
#include "target/mca_model.h"
#include "target/size_model.h"
#include "target/target_info.h"

namespace posetrl {

class Module;

/// Which observation vector the environment feeds the agent.
enum class StateKind {
  /// IR2Vec-style flow-aware program embedding (embed/embedder.h); the
  /// paper's 300-dim state.
  IrEmbedding,
  /// AutoPhase-style static feature vector (analysis/static_features.h):
  /// kStaticFeatureDim counts and dataflow summaries backed by the cached
  /// analysis manager. Much cheaper per step; used for ablations.
  StaticFeatures,
};

/// Environment parameters (paper defaults).
struct EnvConfig {
  TargetArch arch = TargetArch::X86_64;
  double alpha = 10.0;  ///< Weight of the size reward (paper: 10).
  double beta = 5.0;    ///< Weight of the throughput reward (paper: 5).
  int episode_length = 15;
  EmbeddingConfig embedding;
  /// Observation fed to the agent; see StateKind. The agent's
  /// DqnConfig::state_dim must match stateDim().
  StateKind state_kind = StateKind::IrEmbedding;
  /// Dimension of the state vector step()/reset() return under the current
  /// state_kind — what DqnConfig::state_dim must be set to.
  std::size_t stateDim() const {
    return state_kind == StateKind::StaticFeatures
               ? kStaticFeatureDim
               : static_cast<std::size_t>(embedding.dim);
  }
  /// Run the structural verifier after every applied pass; a verify failure
  /// is contained like any fault (rollback + fault report). Default-on in
  /// all build modes: the incremental hash-skipping verifier
  /// (analysis/fast_verifier.h) re-checks only functions the pass actually
  /// touched, so the steady-state cost per step is small.
  bool verify_actions = true;
  /// Diff each pass's declared preserved analyses (Pass::preserved())
  /// against the observed IR delta; broken promises roll back with a
  /// FaultKind::ContractViolation attributed to the pass. It is also what
  /// lets step() skip repeats of a proven no-op action (see step()).
  bool check_contracts = true;
  /// Also run the miscompile oracle after every pass (expensive).
  bool oracle_actions = false;
  /// Every action runs sandboxed: a pass fault is contained (snapshot and
  /// rollback) instead of crashing. Budgets live here; the verify,
  /// contracts and oracle switches are slaved to verify_actions,
  /// check_contracts and oracle_actions.
  SandboxConfig sandbox;
  /// Reward returned for a contained faulting action (the module is rolled
  /// back, so the honest delta-reward is 0; a mild penalty teaches the
  /// agent to avoid the action even before quarantine kicks in).
  double fault_penalty = -1.0;
  /// Faults on the same action before it is quarantined (0 disables).
  std::size_t quarantine_threshold = 2;
  /// Content-hash embedding cache: steps whose pass sub-sequence left the
  /// module unchanged (no-op sequences, fault rollbacks) and every reset()
  /// reuse a previously computed embedding instead of re-running
  /// embedProgram. Purely a throughput optimization — cached and uncached
  /// runs are bit-identical (embeddings are deterministic).
  bool cache_embeddings = true;
  EmbedCacheConfig embed_cache;
};

/// \p config.sandbox with its verify/contracts/oracle switches slaved to
/// verify_actions / check_contracts / oracle_actions. Every sandboxed run
/// under an EnvConfig (environment steps, the serve path's -Oz rung) starts
/// from this.
SandboxConfig sandboxConfigFor(const EnvConfig& config);

/// Phase-ordering environment over one program.
class PhaseOrderEnv {
 public:
  /// \p program is the unoptimized module. The environment clones it once
  /// into its working module and keeps the pristine content as a flat
  /// snapshot, so episodes are independent.
  PhaseOrderEnv(const Module& program,
                const std::vector<SubSequence>& actions, EnvConfig config);
  ~PhaseOrderEnv();

  std::size_t numActions() const { return actions_->size(); }
  const EnvConfig& config() const { return config_; }

  /// Starts a fresh episode; returns the initial state. The first call
  /// finds the working module still pristine; later calls restore it in
  /// place from the pristine snapshot (same Module object, same symbols),
  /// skipping the per-episode clone/destroy of the whole object graph.
  Embedding reset();

  struct StepResult {
    Embedding state;
    double reward = 0.0;
    bool done = false;
    bool faulted = false;  ///< The action faulted and was rolled back.
    FaultReport fault;     ///< Valid when `faulted`.
  };

  /// Applies action \p index (one pass sub-sequence) to the working module.
  ///
  /// No-op memo: with check_contracts on, an action whose sandboxed run
  /// left the content stamp unchanged is recorded as a no-op at the
  /// (contentStamp, irGeneration) key it ran at. Stepping it
  /// again at that same key skips the sandbox and returns what a re-run
  /// would: reward 0, the cached state, no fault, quarantine untouched.
  /// Soundness rules:
  ///   - Keyed, never cleared: workingModule() bumps the stamp, and reset()
  ///     and fault rollbacks restore the module and bump irGeneration, so
  ///     every path that may change the content moves the key.
  ///   - Only the contract checker makes "unchanged stamp" a proof of "no
  ///     change" (without it the sandbox bumps the stamp on every run), so
  ///     the memo is inert unless both switches are on.
  ///   - A step whose sandbox deadline has already expired runs the sandbox,
  ///     which reports FaultKind::DeadlineExpired as without the memo.
  ///   - Passes are deterministic functions of the IR they run on, and the
  ///     pass registry does not change under a live environment.
  ///   - Bounded state: one key plus one bit per action.
  StepResult step(std::size_t index);

  // --- metrics of the working module ---
  double currentSize() const;
  double currentThroughput() const;
  /// McaModel frequency-weighted cycles of the working module.
  double currentCycles() const { return last_cycles_; }
  /// Metrics of the unoptimized program (reward denominators, Eqns 2–3).
  double baseSize() const { return base_size_; }
  double baseCycles() const { return base_cycles_; }
  double baseThroughput() const { return base_throughput_; }
  /// The working module (e.g. to measure or print after a rollout).
  Module& workingModule();
  /// Read-only view of the working module. Unlike workingModule() it does
  /// not bump the content stamp, so capturing or cloning through it keeps
  /// the stamp-keyed memos warm.
  const Module& currentModule() const;
  /// moduleContentHash of the program the environment was built on,
  /// computed once at construction (it doubles as the pristine
  /// embedding-cache key).
  std::uint64_t programHash() const { return pristine_embed_key_; }

  // --- fault tolerance ---
  /// Actions currently quarantined on this program (true = masked); pass to
  /// DoubleDqn::act so episodes route around pathological pairs.
  const std::vector<bool>& actionMask() const { return quarantine_.mask(); }
  ActionQuarantine& quarantine() { return quarantine_; }
  const ActionQuarantine& quarantine() const { return quarantine_; }
  /// Total contained faults across all episodes on this program.
  std::size_t faultCount() const { return faults_; }

  /// Embedding-cache hit/miss counters (zeros when caching is disabled).
  const EmbedCacheStats& embedCacheStats() const {
    return embed_cache_.stats();
  }

  /// The environment's persistent analysis cache: installed as the ambient
  /// manager around every sandboxed action, so the fast verifier, the
  /// contract checker, analysis-using passes and the static-feature
  /// extractor all share one set of per-function results across steps.
  AnalysisManager& analysisManager() { return analysis_; }
  const AnalysisCacheStats& analysisStats() const { return analysis_.stats(); }

 private:
  SandboxConfig effectiveSandboxConfig();
  /// State extraction of the working module (embedding or static features),
  /// through the content-hash cache when enabled.
  Embedding embedWorking();

  /// True when action \p index was proved a no-op at the working module's
  /// current (contentStamp, irGeneration) key; see step().
  bool knownNoop(std::size_t index) const;

  EnvConfig config_;
  const std::vector<SubSequence>* actions_;
  std::unique_ptr<Module> working_;
  SizeModel size_model_;
  McaModel mca_model_;
  Embedder embedder_;
  EmbedCache embed_cache_;
  AnalysisManager analysis_;
  /// Flat snapshot of the working module in its pristine state, captured at
  /// construction; every reset() after the first restores it in place.
  ModuleSnapshot pristine_snapshot_;
  bool started_ = false;  ///< reset() has been called.
  /// Reusable per-step snapshot buffer handed to the sandbox
  /// (SandboxConfig::snapshot_scratch), so capture reuses flat-buffer
  /// capacity instead of re-allocating every step.
  ModuleSnapshot step_snapshot_;
  /// (contentStamp -> contentHash) memo backing O(1) embedding-cache keys:
  /// an unchanged stamp proves the structural hash is unchanged, so repeat
  /// lookups skip even the hash walk. Starts at the pristine key.
  std::uint64_t embed_key_stamp_ = 0;
  std::uint64_t embed_key_ = 0;
  /// Content stamp last_size_/last_cycles_/last_throughput_ were computed
  /// at: a step whose action left the stamp unchanged (contract-verified
  /// no-op) skips both reward-model walks — its true delta is zero.
  std::uint64_t metrics_stamp_ = 0;
  /// Pristine-state memos: every reset() restores the identical content, so
  /// its embedding key is computed once at construction (its reward-model
  /// metrics are base_*) and reused for free afterwards (the restored
  /// content stamp equals pristine_stamp_, proving content equality).
  std::uint64_t pristine_stamp_ = 0;
  std::uint64_t pristine_embed_key_ = 0;
  /// No-op memo (see step()): noop_actions_[a] means action a was proved a
  /// no-op at (noop_stamp_, noop_generation_). A step at any other key
  /// clears the bits before recording.
  std::uint64_t noop_stamp_ = 0;
  std::uint64_t noop_generation_ = 0;
  std::vector<bool> noop_actions_;
  /// Persistent fast verifier shared with every sandboxed action, so the
  /// clean-hash skip cache survives across steps; its pointer-keyed cache is
  /// cleared whenever module symbols are recreated (restore paths report
  /// this via RestoreResult/SandboxOutcome::symbols_preserved).
  FastVerifier verifier_;
  ActionQuarantine quarantine_;
  std::size_t faults_ = 0;
  double base_size_ = 0.0;
  double base_cycles_ = 0.0;
  double base_throughput_ = 0.0;
  double last_size_ = 0.0;
  double last_cycles_ = 0.0;
  double last_throughput_ = 0.0;
  int steps_in_episode_ = 0;
};

}  // namespace posetrl
