#pragma once

/// \file fast_verifier.h
/// The structural IR verifier: the one implementation of the check set
/// (block and instruction structure, phi edges, per-opcode types, use-list
/// integrity, SSA dominance, global initializers). ir/verifier.h's
/// verifyModule is a cold run of it; the training sandbox, the environment
/// and the compile service keep one instance warm across passes. Cheap
/// enough to default-on per pass:
///   - functions whose content hash matches the last clean verification are
///     skipped entirely (a pass touching one function re-verifies one
///     function). The hash comes from fingerprintFunction's memo, so a
///     function nothing has written since its last walk is skipped in O(1):
///     no walk at all;
///   - a re-verified function is numbered densely (blocks, then arguments,
///     then instructions, in layout order) through the shared Value scratch
///     slot (Value::nextStampGeneration), so block membership ("branch to
///     block of another function") and in-block order ("use before def")
///     are member loads instead of per-pass hash sets and maps; phi
///     incoming blocks are matched by a linear scan;
///   - use-list integrity compares each argument's, block's and
///     instruction's use list with the operand slots of its own function,
///     counted in the structural walk into a flat thread-local array
///     indexed by that numbering (an operand of another function's value
///     has no current id and counts nowhere). Functions and globals are
///     numbered per call and counted in a second flat array; each function
///     keeps the symbols it references in its skip-cache entry, so a
///     skipped function still contributes them. The steady state allocates
///     nothing per verified function; use-list messages are built only on
///     a mismatch;
///   - SSA dominance uses the AnalysisManager's cached dominator tree, and
///     only runs when the structural checks (terminators, phi placement,
///     parents, types, use lists) came back clean — the tree construction
///     asserts on malformed CFGs. The dominator query may re-stamp the
///     scratch slot, so the function is numbered again after it.
/// A warm instance must reach the verdict a cold one does:
/// tests/fuzz_test.cpp's VerifierEquivalenceTest holds the two together on
/// mutated text and on corrupted pass-soup outputs. The dominator tree
/// itself is checked against a naive reference in tests/analysis_test.cpp.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/verifier.h"

namespace posetrl {

class Module;
class Value;

/// Stateful fast verifier. Keep one instance alive across passes/steps so
/// the clean-hash skip cache pays off. The only IR pointers it reads from
/// the cache are a skipped function's recorded symbol references, and only
/// while that function's skip key still matches, i.e. while its unchanged
/// body still holds them; module replacement needs clearCache().
class FastVerifier {
 public:
  /// Verifies \p m, pulling cached analyses from \p am.
  VerifyResult verify(Module& m, AnalysisManager& am);

  /// Total instructions walked by structural checks (skipped functions
  /// contribute nothing). Basis for the ns/instruction benchmark metric.
  std::size_t instructionsChecked() const { return instructions_checked_; }
  /// Functions skipped because their content hash was verified clean before.
  std::size_t functionsSkipped() const { return functions_skipped_; }

  void resetStats() {
    instructions_checked_ = 0;
    functions_skipped_ = 0;
  }

  /// Drops the clean-hash skip cache. Owners sharing one verifier across
  /// sequences must call this whenever the module object is replaced
  /// (reset, sandbox rollback): the cache is keyed by Function pointers,
  /// and a recycled address could otherwise replay the symbol references
  /// of a function that no longer exists.
  void clearCache() { clean_.clear(); }

 private:
  /// State of the last *clean* verification per function. The key includes
  /// a use-count/name-presence hash on top of the structural fingerprint
  /// because the fingerprint deliberately ignores both but the verifier
  /// checks them. module_refs lists the functions and globals the body's
  /// operands reference, one entry per operand slot: the function's
  /// contribution to the module-wide use-count check, so a skipped function
  /// costs no walk at all.
  struct CleanEntry {
    std::uint64_t key = 0;
    std::vector<const Value*> module_refs;
  };
  std::unordered_map<const Function*, CleanEntry> clean_;
  std::size_t instructions_checked_ = 0;
  std::size_t functions_skipped_ = 0;
};

}  // namespace posetrl
