#pragma once

/// \file analysis_manager.h
/// Cached dataflow-analysis framework. An AnalysisManager memoizes the
/// per-function analyses (dominators, loop info, liveness, reaching
/// definitions, integer value ranges) behind content-hash
/// validation: every query compares the function's fingerprint with the one
/// the cached analyses were built at and rebuilds only when the IR actually
/// changed. The fingerprint itself is memoized on the function's body
/// generation (Function::bodyGeneration), so a query on a function nothing
/// has written since its last fingerprint costs O(1); only a modified
/// function pays the O(instrs) walk.
///
/// Passes declare which analyses they preserve (Pass::preserved); the
/// pass-boundary protocol (recordBoundary/reconcileBoundary) statically
/// diffs those declarations against the hash-observed mutation and flags
/// lying passes — the pass-contract checker that attributes verifier-clean
/// miscompiles (e.g. a silently rewritten constant) to the offending pass
/// without running the interpreter.
///
/// A thread-local AnalysisScope makes one manager ambient for a pipeline
/// run; pass bodies and block-frequency estimation query
/// AnalysisManager::current() and transparently fall back to a local
/// throwaway manager when no scope is installed (exactly the old
/// compute-from-scratch behaviour).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dominators.h"
#include "analysis/loop_info.h"

namespace posetrl {

class Function;
class Module;
class LivenessInfo;
class ReachingDefs;
class ValueRanges;

/// The analyses the manager caches. CFG-level analyses (Dominators, Loops)
/// depend only on the block graph; instruction-level analyses (Liveness,
/// ReachingDefs, ValueRanges) depend on every instruction.
enum class AnalysisKind : unsigned {
  Dominators = 0,
  Loops,
  Liveness,
  ReachingDefs,
  ValueRanges,
};
constexpr std::size_t kNumAnalysisKinds = 5;

/// Set of analyses a pass promises to keep valid. The default for every
/// pass is none() — a pass must opt in to each promise, and the contract
/// checker verifies promises against the observed IR delta.
class PreservedAnalyses {
 public:
  static PreservedAnalyses none() { return PreservedAnalyses(0); }
  static PreservedAnalyses all() {
    return PreservedAnalyses((1u << kNumAnalysisKinds) - 1);
  }
  /// The CFG-shape analyses only: correct for passes that rewrite
  /// instructions but never add/remove blocks or retarget branches.
  static PreservedAnalyses cfg() {
    return none().preserve(AnalysisKind::Dominators)
        .preserve(AnalysisKind::Loops);
  }

  PreservedAnalyses preserve(AnalysisKind kind) const {
    return PreservedAnalyses(bits_ | (1u << static_cast<unsigned>(kind)));
  }
  bool preserves(AnalysisKind kind) const {
    return (bits_ & (1u << static_cast<unsigned>(kind))) != 0;
  }
  bool preservesAny() const { return bits_ != 0; }
  bool preservesCfgShape() const {
    return preserves(AnalysisKind::Dominators) ||
           preserves(AnalysisKind::Loops);
  }
  bool preservesInstructionLevel() const {
    return preserves(AnalysisKind::Liveness) ||
           preserves(AnalysisKind::ReachingDefs) ||
           preserves(AnalysisKind::ValueRanges);
  }

 private:
  explicit PreservedAnalyses(unsigned bits) : bits_(bits) {}
  unsigned bits_;
};

/// Structural content hashes of one function, split by what the cached
/// analyses depend on. Names are excluded (renames invalidate nothing);
/// function attributes are excluded (attribute-only passes are no-ops to
/// every dataflow analysis).
struct FunctionFingerprint {
  std::uint64_t cfg = 0;    ///< Block list + successor edges.
  std::uint64_t instrs = 0; ///< Everything: opcodes, operands, types,
                            ///< predicates, constants, block structure.
  bool operator==(const FunctionFingerprint& o) const {
    return cfg == o.cfg && instrs == o.instrs;
  }
};

/// Stable structural fingerprint of \p f (see FunctionFingerprint). When
/// \p aux_key is non-null it receives what the fingerprint deliberately
/// ignores but the fast verifier checks — per-value use-list lengths and
/// result-name presence. Memoized on f's body generation: while nothing has
/// written to \p f since the last walk, this returns that walk's hashes
/// without walking again.
FunctionFingerprint fingerprintFunction(const Function& f,
                                        std::uint64_t* aux_key = nullptr);
/// The walk behind fingerprintFunction, bypassing the memo (tests compare
/// the two to prove the generation bumps complete).
FunctionFingerprint walkFingerprint(const Function& f, std::uint64_t& aux_key);

/// fingerprintFunction work counters of the calling thread: walks taken and
/// memo hits. Counts are exact, so tests and benchmarks gate on them.
struct FingerprintCounts {
  std::uint64_t walks = 0;
  std::uint64_t memo_hits = 0;
};
const FingerprintCounts& fingerprintCounts();

/// Fingerprint of module-level data: global variables and their
/// initializers (function bodies are covered per function).
std::uint64_t fingerprintModuleData(const Module& m);

/// Cache counters. hits/misses count analysis queries; invalidations counts
/// entries whose analyses were dropped as stale.
struct AnalysisCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t invalidations = 0;
  std::size_t contract_checks = 0;
  std::size_t contract_violations = 0;

  double hitRate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  /// Fold another environment's counters into this one (trainer aggregation).
  void accumulate(const AnalysisCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    invalidations += other.invalidations;
    contract_checks += other.contract_checks;
    contract_violations += other.contract_violations;
  }
};

/// One pass-contract violation observed at a pass boundary.
struct ContractViolation {
  std::string function;  ///< Function whose state broke the promise.
  std::string detail;    ///< Human-readable description.
};

/// Result of reconciling one pass boundary against the pass's declarations.
struct BoundaryReport {
  bool ir_changed = false;   ///< Any function or global data changed.
  bool cfg_changed = false;  ///< Any function's block graph changed.
  std::vector<ContractViolation> violations;

  bool clean() const { return violations.empty(); }
};

/// Per-function analysis cache with hash validation and the pass-contract
/// boundary protocol. Not thread-safe; owned by one pipeline/environment.
class AnalysisManager {
 public:
  AnalysisManager();
  ~AnalysisManager();
  AnalysisManager(const AnalysisManager&) = delete;
  AnalysisManager& operator=(const AnalysisManager&) = delete;

  // --- cached queries (rebuild only when the function's hash changed) ---
  const DominatorTree& dominators(Function& f);
  const LoopInfo& loopInfo(Function& f);
  const LivenessInfo& liveness(Function& f);
  const ReachingDefs& reachingDefs(Function& f);
  const ValueRanges& valueRanges(Function& f);

  /// Validates \p f's entry exactly as a query does — analyses built at a
  /// different fingerprint are dropped (two-level) — without building any.
  /// The fast verifier validates every function it checks, so the cache
  /// sees each pass boundary even for functions no pass queries.
  void validate(Function& f);

  const AnalysisCacheStats& stats() const { return stats_; }

  // --- pass-boundary protocol (contract checker) ---
  /// Snapshots every function's fingerprint before a pass runs. When the
  /// boundary is already armed (reconcileBoundary re-arms it with the
  /// post-pass fingerprints it computed), this is a no-op: inside one
  /// instrumented sequence nothing runs between a reconcile and the next
  /// record, so the snapshot is already current. Callers starting a new
  /// sequence must disarmBoundary() first (PassInstrumentation does).
  void recordBoundary(Module& m);
  /// Drops the armed boundary snapshot; the next recordBoundary rehashes.
  void disarmBoundary() { boundary_recorded_ = false; }
  /// Diffs the post-pass fingerprints against the recorded snapshot,
  /// invalidates what actually changed, and reports declared-preserved
  /// analyses the pass broke plus changed=false lies. \p reported_changed
  /// is the pass's own run() return value.
  BoundaryReport reconcileBoundary(Module& m, const PreservedAnalyses& declared,
                                   bool reported_changed);

  /// The scope-installed ambient manager, or nullptr.
  static AnalysisManager* current();
  /// current() if a scope is installed, else \p fallback — the pattern pass
  /// bodies use so they work both inside managed pipelines and standalone.
  static AnalysisManager& currentOr(AnalysisManager& fallback);

 private:
  friend class AnalysisScope;

  struct FuncEntry;

  /// The entry for \p f, hash-validated: a stale entry is cleared (counted
  /// as invalidation) before being returned.
  FuncEntry& validated(Function& f);

  std::unordered_map<const Function*, std::unique_ptr<FuncEntry>> funcs_;
  /// Pre-pass snapshot for the boundary protocol.
  std::unordered_map<const Function*, FunctionFingerprint> boundary_;
  std::uint64_t boundary_data_hash_ = 0;
  bool boundary_recorded_ = false;
  AnalysisCacheStats stats_;
};

/// RAII scope making \p m the thread-local ambient manager returned by
/// AnalysisManager::current(). Scopes nest (inner wins).
class AnalysisScope {
 public:
  explicit AnalysisScope(AnalysisManager& m);
  ~AnalysisScope();
  AnalysisScope(const AnalysisScope&) = delete;
  AnalysisScope& operator=(const AnalysisScope&) = delete;

 private:
  AnalysisManager* prev_;
};

}  // namespace posetrl
