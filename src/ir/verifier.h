#pragma once

/// \file verifier.h
/// Structural and semantic well-formedness checks for MiniIR. Run after
/// every pass in the test suite's property checks; a failure indicates a
/// bug in the producing pass, not in user input.
///
/// There is one implementation of the check set: FastVerifier::verify in
/// analysis/fast_verifier.h. verifyModule is a cold run of it and is
/// defined in the analysis library, because the dominance checks use the
/// cached dominator tree.

#include <string>
#include <vector>

namespace posetrl {

class Module;
class Function;
class Instruction;

/// Result of verification: empty error list means the IR is well formed.
struct VerifyResult {
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  /// All error messages joined with newlines.
  std::string message() const;
};

/// Verifies an entire module (globals, declarations, every function body)
/// with a fresh FastVerifier and a fresh AnalysisManager, so no cache from
/// an earlier call can hide a defect. Not a pure read: the walk writes the
/// module's Value scratch slots and fingerprint memos, so no other thread
/// may touch \p module meanwhile.
VerifyResult verifyModule(Module& module);

/// Appends per-opcode type-rule violations of one instruction to \p out.
void checkInstructionTypes(const Function* f, const Instruction& inst,
                           VerifyResult& out);

/// Appends global-variable initializer violations to \p out.
void checkGlobalInits(const Module& module, VerifyResult& out);

}  // namespace posetrl
