#pragma once

/// \file pass.h
/// Pass interface and registry. Passes are keyed by the exact flag names
/// LLVM-10's -Oz pipeline uses (Table I of the paper), so the Oz sequence,
/// the manual sub-sequences (Table II) and the ODG sub-sequences (Table III)
/// can be expressed as strings of those names.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis_manager.h"

namespace posetrl {

class Module;
class Function;
class PassInstrumentation;

/// A transformation over a whole module.
class Pass {
 public:
  virtual ~Pass() = default;

  /// Flag name without the leading dash, e.g. "simplifycfg".
  virtual std::string_view name() const = 0;

  /// Runs the transformation; returns true when the IR changed.
  virtual bool run(Module& module) = 0;

  /// Analyses this pass promises to keep valid across run(). The default is
  /// the safe answer (nothing); a pass opts in per analysis, and the
  /// pass-contract checker diffs the declaration against the observed IR
  /// delta at every pass boundary — a pass that promises more than it keeps
  /// is flagged with its name attached. Cache invalidation itself never
  /// trusts this (it is hash-driven), so a wrong declaration can only
  /// produce a contract report, not a miscompile.
  virtual PreservedAnalyses preserved() const {
    return PreservedAnalyses::none();
  }
};

/// Convenience base for per-function transformations.
class FunctionPass : public Pass {
 public:
  bool run(Module& module) final;

 protected:
  virtual bool runOnFunction(Function& f) = 0;
};

/// Creates the pass registered under \p name (aliases like
/// "alignmentfromassumptions" vs "alignment-from-assumptions" both resolve);
/// returns nullptr for unknown names.
std::unique_ptr<Pass> createPass(std::string_view name);

/// All canonical registered pass names.
std::vector<std::string> allPassNames();

/// Registers (or replaces) a pass factory under \p name, making it reachable
/// from createPass / parsePassSequence / runPassSequence. Used by tests to
/// inject deliberately broken passes into instrumented pipelines, and by
/// downstream tools to extend the action space without editing the table.
void registerPass(const std::string& name,
                  std::function<std::unique_ptr<Pass>()> factory);

/// Parses a pass-sequence string like "-simplifycfg -sroa -early-cse" into
/// pass names (leading dashes optional). Aborts on unknown passes when
/// \p strict, otherwise skips them.
std::vector<std::string> parsePassSequence(std::string_view sequence,
                                           bool strict = true);

/// Runs \p pass_names over \p module in order; returns true if any changed
/// the IR. Checks nothing; use the instrumented overload below to verify
/// after every pass.
bool runPassSequence(Module& module,
                     const std::vector<std::string>& pass_names);

/// Instrumented variant: \p instr.beginSequence runs before the first pass
/// and \p instr.afterPass after every pass, so verifier/lint/oracle failures
/// are attributed to the offending pass (see lint/instrumentation.h).
bool runPassSequence(Module& module,
                     const std::vector<std::string>& pass_names,
                     PassInstrumentation& instr);

/// Runs already-constructed passes (not necessarily registered ones) with
/// optional instrumentation; the building block of both runPassSequence
/// overloads and of tests that inject custom passes.
bool runPasses(Module& module, const std::vector<Pass*>& passes,
               PassInstrumentation* instr = nullptr);

}  // namespace posetrl
