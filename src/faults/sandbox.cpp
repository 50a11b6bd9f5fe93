#include "faults/sandbox.h"

#include <cmath>
#include <exception>
#include <optional>

#include "analysis/analysis_manager.h"
#include "analysis/fast_verifier.h"
#include "ir/module.h"
#include "ir/snapshot.h"
#include "lint/instrumentation.h"
#include "passes/pass.h"
#include "support/arena.h"
#include "support/error.h"
#include "support/fuel.h"

namespace posetrl {

SandboxOutcome runActionSandboxed(std::unique_ptr<Module>& module,
                                  const std::vector<std::string>& pass_names,
                                  const SandboxConfig& config) {
  POSETRL_CHECK(module != nullptr, "sandbox needs a module");
  // All instruction/block churn below draws from the module's bump arena.
  ArenaScope arena_scope(module->arena());
  ModuleSnapshot local_snapshot;
  ModuleSnapshot& snapshot = config.snapshot_scratch != nullptr
                                 ? *config.snapshot_scratch
                                 : local_snapshot;
  // A reused scratch snapshot whose capture-time content stamp still
  // matches already encodes the module's current bytes (the previous
  // action was a contract-verified no-op or a rollback) — skip the
  // O(instructions) re-encode.
  if (!snapshot.matches(*module)) snapshot.capture(*module);
  const std::size_t base_instrs = module->instructionCount();
  const std::size_t growth_cap =
      config.max_ir_growth > 0.0
          ? static_cast<std::size_t>(
                std::ceil(static_cast<double>(base_instrs) *
                          config.max_ir_growth)) +
                config.ir_growth_headroom
          : 0;

  // One analysis cache for the whole action. A caller that owns a manager
  // (PhaseOrderEnv::step) has already installed it; otherwise a run-local
  // one is installed here, so each pass reuses the dominators and loop info
  // that the previous pass's checks just validated instead of rebuilding
  // them in a throwaway manager.
  std::optional<AnalysisManager> run_manager;
  std::optional<AnalysisScope> run_scope;
  if (AnalysisManager::current() == nullptr) {
    run_manager.emplace();
    run_scope.emplace(*run_manager);
  }

  // Verifier/oracle attribution reuses the lint instrumentation layer; the
  // sandbox never aborts, it rolls back.
  InstrumentOptions iopts;
  iopts.verify = config.verify;
  iopts.contracts = config.contracts;
  iopts.oracle = config.oracle;
  iopts.abort_on_failure = false;
  iopts.shared_fast_verifier = config.fast_verifier;
  iopts.trust_armed_boundary = config.trust_armed_boundary;
  iopts.oracle_options.max_steps = config.oracle_fuel;
  const bool instrumented =
      config.verify || config.oracle || config.contracts;
  PassInstrumentation instr(iopts);

  SandboxOutcome outcome;
  FaultReport& fault = outcome.fault;
  fault.instructions_before = base_instrs;
  fault.fuel_budget = config.pass_fuel;

  const auto failAt = [&](FaultKind kind, std::size_t step,
                          const std::string& pass, std::string detail,
                          std::uint64_t fuel_used) {
    fault.kind = kind;
    fault.pass_step = step;
    fault.pass = pass;
    fault.detail = std::move(detail);
    fault.instructions_after = module->instructionCount();
    fault.fuel_used = fuel_used;
    // Roll back in place: same Module object, same symbols whenever the
    // action left the symbol table alone. Blocks/instructions are
    // recreated, so restoreInto bumps the module's irGeneration — the
    // ambient manager's generation-stamped entries self-invalidate on
    // their next query instead of being dropped wholesale here.
    const ModuleSnapshot::RestoreResult restored =
        snapshot.restoreInto(*module);
    outcome.symbols_preserved = restored.symbols_preserved;
    if (AnalysisManager* am = AnalysisManager::current()) {
      // The armed boundary (if any) fingerprints post-pass content that no
      // longer exists; re-arm lazily at the next recordBoundary.
      am->disarmBoundary();
    }
    if (!restored.symbols_preserved && config.fast_verifier != nullptr) {
      // A function/global was created or erased between capture and
      // rollback: clean-cache keys may dangle or alias recycled addresses.
      config.fast_verifier->clearCache();
    }
    outcome.ok = false;
  };

  if (instrumented) instr.beginSequence(*module);

  for (std::size_t i = 0; i < pass_names.size(); ++i) {
    const std::string& name = pass_names[i];
    const std::size_t step = i + 1;
    // Pass-boundary deadline check: a request that ran out of time between
    // passes rolls back before the next pass starts, bounding response
    // latency to deadline + one pass of work.
    if (config.deadline.expired()) {
      failAt(FaultKind::DeadlineExpired, step, name,
             "deadline expired before pass", 0);
      return outcome;
    }
    std::unique_ptr<Pass> pass = createPass(name);
    if (pass == nullptr) {
      failAt(FaultKind::PassException, step, name, "unknown pass", 0);
      return outcome;
    }

    if (instrumented) instr.beforePass(*pass, *module);

    std::uint64_t fuel_used = 0;
    bool pass_changed = false;
    try {
      FuelScope fuel(config.pass_fuel);
      DeadlineScope deadline(config.deadline);
      // POSETRL_CHECK failures inside the pass become contained faults
      // instead of aborting the process.
      ScopedFaultTrap trap;
      try {
        pass_changed = pass->run(*module);
        outcome.changed |= pass_changed;
      } catch (...) {
        fuel_used = fuel.consumed();
        throw;
      }
      fuel_used = fuel.consumed();
    } catch (const FuelExhaustedError& e) {
      failAt(FaultKind::FuelExhausted, step, name, e.what(), fuel_used);
      return outcome;
    } catch (const DeadlineExpiredError& e) {
      failAt(FaultKind::DeadlineExpired, step, name, e.what(), fuel_used);
      return outcome;
    } catch (const FatalError& e) {
      failAt(FaultKind::CheckFailure, step, name, e.what(), fuel_used);
      return outcome;
    } catch (const std::exception& e) {
      failAt(FaultKind::PassException, step, name, e.what(), fuel_used);
      return outcome;
    }

    if (growth_cap > 0 && module->instructionCount() > growth_cap) {
      failAt(FaultKind::IrGrowth, step, name,
             std::to_string(module->instructionCount()) +
                 " instructions exceed cap " + std::to_string(growth_cap) +
                 " (" + std::to_string(base_instrs) + " pre-action)",
             fuel_used);
      return outcome;
    }

    if (instrumented) {
      const std::size_t prior = instr.failures().size();
      try {
        ScopedFaultTrap trap;
        DeadlineScope deadline(config.deadline);
        DeadlineScope::poll();
        instr.afterPass(*pass, *module, pass_changed);
      } catch (const DeadlineExpiredError& e) {
        failAt(FaultKind::DeadlineExpired, step, name, e.what(), fuel_used);
        return outcome;
      } catch (const std::exception& e) {
        failAt(FaultKind::VerifyFailure, step, name,
               std::string("instrumentation failed: ") + e.what(), fuel_used);
        return outcome;
      }
      if (instr.failures().size() > prior) {
        const PassFailure& f = instr.failures().back();
        const FaultKind kind = f.stage == "oracle"
                                   ? FaultKind::OracleDivergence
                                   : f.stage == "contract"
                                         ? FaultKind::ContractViolation
                                         : FaultKind::VerifyFailure;
        failAt(kind, step, name, f.detail, fuel_used);
        return outcome;
      }
    }
  }
  // Content-stamp maintenance for O(1) embedding-cache keys: bump on any
  // action that (possibly) mutated the IR. With the contract checker on,
  // `changed` is trustworthy — a lying pass is caught and rolled back —
  // so honest no-op actions keep their stamp (and their cached hash).
  // Without contracts, bump unconditionally.
  if (outcome.changed || !config.contracts) module->bumpContentStamp();
  return outcome;
}

}  // namespace posetrl
