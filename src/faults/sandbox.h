#pragma once

/// \file sandbox.h
/// Sandboxed execution of one pass sub-sequence with snapshot/rollback.
/// The caller's module is encoded into a flat ModuleSnapshot before
/// anything runs (no clone, no second object graph); if any pass throws,
/// trips a POSETRL_CHECK, exceeds the IR-growth cap, exhausts its fuel
/// budget, breaks the structural verifier or diverges under the miscompile
/// oracle, the snapshot is restored *in place* — same Module object, same
/// interned constants and types, and (unless the action added/removed
/// symbols) the same Function/GlobalVariable objects — byte-for-byte
/// identical text, and a FaultReport describes what happened. On success
/// the module keeps the transformed state, exactly as an unsandboxed run
/// would leave it. Pass execution runs under the module's ArenaScope, so
/// instruction/block churn stays inside the module's bump arena. One
/// AnalysisManager serves the whole action: the caller's ambient one when a
/// scope is installed (PhaseOrderEnv::step), else a run-local one, so the
/// passes and the per-pass checks share cached dominators and loop info.

#include <memory>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "support/deadline.h"

namespace posetrl {

class FastVerifier;
class Module;
class ModuleSnapshot;

/// Budgets and checks for one sandboxed action.
struct SandboxConfig {
  /// Run the structural verifier after every pass; failures roll back with
  /// per-pass attribution instead of aborting. Default-on: the fast
  /// incremental verifier (analysis/fast_verifier.h) re-verifies only
  /// functions whose content hash changed, so this is cheap enough for
  /// every training step and every serving request.
  bool verify = true;
  /// Diff each pass's declared preserved analyses against the observed IR
  /// delta (the pass-contract checker); a broken promise rolls back with a
  /// FaultKind::ContractViolation attributed to the pass — statically, with
  /// no interpreter run.
  bool contracts = true;
  /// Run the differential miscompile oracle after every pass (expensive;
  /// interpreter executions per pass).
  bool oracle = false;
  /// Cap on the working module's instruction count after any single pass:
  /// pre-action count × this factor, plus a small absolute headroom so tiny
  /// modules are not over-constrained. <= 0 disables the cap.
  double max_ir_growth = 16.0;
  /// Absolute headroom added to the growth cap.
  std::size_t ir_growth_headroom = 64;
  /// Cooperative fuel units each pass may spend (see support/fuel.h);
  /// 0 disables the budget.
  std::uint64_t pass_fuel = 2'000'000;
  /// Wall-clock deadline for the whole action. Checked at every pass
  /// boundary and (via the fuel hooks, see support/deadline.h) inside
  /// long-running passes; expiry rolls back to the snapshot with a
  /// FaultKind::DeadlineExpired report. Defaults to never.
  Deadline deadline;
  /// Externally owned fast verifier (see InstrumentOptions::
  /// shared_fast_verifier): keeps the clean-hash skip cache warm across
  /// actions instead of re-verifying the whole module on each action's
  /// first pass. The owner must clearCache() on every module replacement.
  FastVerifier* fast_verifier = nullptr;
  /// Keep the armed contract-boundary snapshot across actions (see
  /// InstrumentOptions::trust_armed_boundary). Only safe when the caller
  /// guarantees no mutation between sandboxed actions.
  bool trust_armed_boundary = false;
  /// Optional caller-owned snapshot buffer. The sandbox captures into it
  /// instead of a stack-local one, so a long-lived caller (the environment,
  /// one capture per step) reuses the flat buffers' capacity instead of
  /// re-allocating them every action.
  ModuleSnapshot* snapshot_scratch = nullptr;
};

/// Outcome of one sandboxed action.
struct SandboxOutcome {
  bool ok = true;        ///< False when a fault was contained.
  bool changed = false;  ///< Whether any pass changed the IR (when ok).
  /// Meaningful after a rollback (!ok): true when every module-level
  /// symbol object (Function/GlobalVariable) survived the in-place restore
  /// — pointer-keyed caches over those symbols (the fast verifier's
  /// clean-function cache) remain valid. When false the sandbox has
  /// already cleared config.fast_verifier's cache; callers holding other
  /// symbol-keyed state must clear theirs.
  bool symbols_preserved = true;
  FaultReport fault;     ///< Valid when !ok.
};

/// Runs \p pass_names over \p module under \p config. \p module must be
/// non-null; on fault it is restored in place to the pre-action snapshot
/// (the Module object itself is never replaced).
SandboxOutcome runActionSandboxed(std::unique_ptr<Module>& module,
                                  const std::vector<std::string>& pass_names,
                                  const SandboxConfig& config);

}  // namespace posetrl
