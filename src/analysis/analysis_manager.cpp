#include "analysis/analysis_manager.h"

#include <cstring>
#include <utility>

#include "analysis/liveness.h"
#include "analysis/reaching_defs.h"
#include "analysis/value_range.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/structural_hash.h"
#include "support/hashing.h"

namespace posetrl {

namespace {

/// Structural type hash, independent of interning addresses (so fingerprints
/// agree across module clones). The shared memoized implementation lives in
/// ir/structural_hash.cpp — fingerprints and the module content hash must
/// agree on the value stored in Type::analysisHashCache.
std::uint64_t hashType(const Type* t) { return structuralTypeHash(t); }

std::uint64_t bitsOfDouble(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

thread_local FingerprintCounts g_fingerprint_counts;

}  // namespace

const FingerprintCounts& fingerprintCounts() { return g_fingerprint_counts; }

FunctionFingerprint fingerprintFunction(const Function& f,
                                        std::uint64_t* aux_key) {
  Function::FingerprintMemo& memo = f.fingerprintMemo();
  if (memo.generation == f.bodyGeneration()) {
    ++g_fingerprint_counts.memo_hits;
  } else {
    ++g_fingerprint_counts.walks;
    const FunctionFingerprint fp = walkFingerprint(f, memo.aux);
    memo.cfg = fp.cfg;
    memo.instrs = fp.instrs;
    memo.generation = f.bodyGeneration();
  }
  if (aux_key != nullptr) *aux_key = memo.aux;
  return {memo.cfg, memo.instrs};
}

FunctionFingerprint walkFingerprint(const Function& f, std::uint64_t& aux_key) {
  // Value-number blocks and instructions so the hash is position-based and
  // independent of pointer addresses and SSA names. Blocks are numbered by
  // their position among blocks only, so that instruction-level edits leave
  // the CFG hash untouched. Ids are stamped into a generation-tagged
  // scratch slot on the Value itself (Value::stampFingerprintId): operand
  // resolution is then two member loads instead of a hash-map probe.
  const std::uint64_t gen = Value::nextStampGeneration();
  std::uint64_t next_block = 1;
  std::uint64_t next_inst = 1;
  for (const auto& b : f.blocks()) {
    b->stampFingerprintId(gen, hashCombine(10, next_block++));
    for (const auto& inst : b->insts())
      inst->stampFingerprintId(gen, hashCombine(1, next_inst++));
  }

  const auto valueId = [&](const Value* v) -> std::uint64_t {
    if (v == nullptr) return 0;
    if (v->fingerprintIdValid(gen)) return v->fingerprintId();
    switch (v->kind()) {
      case Value::Kind::ConstantInt: {
        const auto* c = cast<ConstantInt>(v);
        return hashCombine(hashCombine(2, hashType(v->type())),
                           static_cast<std::uint64_t>(c->value()));
      }
      case Value::Kind::ConstantFloat:
        return hashCombine(3, bitsOfDouble(cast<ConstantFloat>(v)->value()));
      case Value::Kind::ConstantNull:
        return hashCombine(4, hashType(v->type()));
      case Value::Kind::Undef:
        return hashCombine(5, hashType(v->type()));
      case Value::Kind::Argument:
        return hashCombine(6, cast<Argument>(v)->index());
      case Value::Kind::GlobalVariable:
        return hashCombine(7, fnv1a(v->name()));
      case Value::Kind::Function:
        return hashCombine(8, fnv1a(v->name()));
      default:
        return 9;  // Foreign block — never well-formed, but stay total.
    }
  };

  FunctionFingerprint fp;

  std::uint64_t cfg = kFnvOffset;
  cfg = hashCombine(cfg, f.blocks().size());
  for (const auto& b : f.blocks()) {
    cfg = hashCombine(cfg, b->fingerprintId());
    for (const BasicBlock* s : b->successors())
      // A successor outside this function is never well-formed (the
      // verifier flags it), but the hash stays total: unstamped → marker.
      cfg = hashCombine(cfg, s->fingerprintIdValid(gen) ? s->fingerprintId()
                                                        : 9);
  }
  fp.cfg = cfg;

  // The instruction-level hash covers everything the CFG hash does (it is
  // seeded with it) plus the signature and every instruction's structure.
  // Names, linkage and function attributes are deliberately excluded:
  // renames and attribute-only passes are no-ops to every cached analysis.
  std::uint64_t aux = kFnvOffset;
  for (const auto& a : f.args()) aux = hashCombine(aux, a->numUses());

  std::uint64_t h = hashCombine(cfg, hashType(f.functionType()));
  for (const auto& b : f.blocks()) {
    h = hashCombine(h, b->fingerprintId());
    aux = hashCombine(aux, b->numUses());
    for (const auto& inst : b->insts()) {
      aux = hashCombine(aux, inst->numUses());
      aux = hashCombine(aux, inst->name().empty() ? 0u : 1u);
      h = hashInstAttrs(h, inst->attrs());
      h = hashCombine(h, inst->numOperands());
      for (const Value* op : inst->operands()) h = hashCombine(h, valueId(op));
    }
  }
  fp.instrs = h;
  aux_key = aux;
  return fp;
}

std::uint64_t fingerprintModuleData(const Module& m) {
  std::uint64_t h = kFnvOffset;
  for (const auto& g : m.globals()) {
    h = hashCombine(h, fnv1a(g->name()));
    h = hashCombine(h, hashType(g->valueType()));
    const GlobalInit& init = g->init();
    h = hashCombine(h, static_cast<std::uint64_t>(init.kind));
    h = hashCombine(h, static_cast<std::uint64_t>(init.int_value));
    h = hashCombine(h, bitsOfDouble(init.float_value));
    for (std::int64_t e : init.elements)
      h = hashCombine(h, static_cast<std::uint64_t>(e));
    if (init.function != nullptr)
      h = hashCombine(h, fnv1a(init.function->name()));
  }
  return h;
}

/// Cached analyses plus the fingerprint they were computed at.
struct AnalysisManager::FuncEntry {
  FunctionFingerprint fp;
  std::unique_ptr<DominatorTree> dom;
  std::unique_ptr<LoopInfo> loops;
  std::unique_ptr<LivenessInfo> liveness;
  std::unique_ptr<ReachingDefs> reaching;
  std::unique_ptr<ValueRanges> ranges;

  void clear() {
    // LoopInfo holds pointers into the DominatorTree; drop it first.
    loops.reset();
    dom.reset();
    liveness.reset();
    reaching.reset();
    ranges.reset();
  }
  /// Drops only the analyses that depend on instruction content. Dominators
  /// and loops survive: they read nothing but the block graph, and blocks
  /// are stable objects — instruction edits never move or free them.
  void clearInstructionLevel() {
    liveness.reset();
    reaching.reset();
    ranges.reset();
  }
  bool hasAny() const {
    return dom || loops || liveness || reaching || ranges;
  }

  /// Module::irGeneration() the cached analyses were built against. A
  /// snapshot rollback (ModuleSnapshot::restoreInto) reverts the content —
  /// so the fingerprint matches again — but recreates every block and
  /// instruction at new addresses; the generation bump it performs makes
  /// this comparison fail and forces a full clear. Without it the
  /// fingerprint check would happily serve a DominatorTree full of dangling
  /// block pointers.
  std::uint64_t ir_gen = 0;
};

AnalysisManager::AnalysisManager() = default;
AnalysisManager::~AnalysisManager() = default;

AnalysisManager::FuncEntry& AnalysisManager::validated(Function& f) {
  const FunctionFingerprint fp = fingerprintFunction(f);
  std::unique_ptr<FuncEntry>& slot = funcs_[&f];
  const std::uint64_t ir_gen = f.parent()->irGeneration();
  if (!slot) {
    slot = std::make_unique<FuncEntry>();
    slot->fp = fp;
  } else if (slot->ir_gen != ir_gen) {
    // Snapshot rollback recreated the body objects: even a matching
    // fingerprint (content reverted) means every cached pointer dangles.
    if (slot->hasAny()) ++stats_.invalidations;
    slot->clear();
    slot->fp = fp;
  } else if (!(slot->fp == fp)) {
    if (slot->hasAny()) ++stats_.invalidations;
    if (slot->fp.cfg == fp.cfg) {
      // Instruction-only edit: the block graph is intact, so the CFG-shape
      // analyses stay valid and only the instruction-level ones are stale.
      slot->clearInstructionLevel();
    } else {
      slot->clear();
    }
    slot->fp = fp;
  }
  slot->ir_gen = ir_gen;
  return *slot;
}

void AnalysisManager::validate(Function& f) { validated(f); }

const DominatorTree& AnalysisManager::dominators(Function& f) {
  FuncEntry& e = validated(f);
  if (e.dom) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    e.dom = std::make_unique<DominatorTree>(f);
  }
  return *e.dom;
}

const LoopInfo& AnalysisManager::loopInfo(Function& f) {
  const DominatorTree& dt = dominators(f);
  FuncEntry& e = *funcs_[&f];  // Validated by the dominators query.
  if (e.loops) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    e.loops = std::make_unique<LoopInfo>(f, dt);
  }
  return *e.loops;
}

const LivenessInfo& AnalysisManager::liveness(Function& f) {
  FuncEntry& e = validated(f);
  if (e.liveness) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    e.liveness = std::make_unique<LivenessInfo>(f);
  }
  return *e.liveness;
}

const ReachingDefs& AnalysisManager::reachingDefs(Function& f) {
  FuncEntry& e = validated(f);
  if (e.reaching) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    e.reaching = std::make_unique<ReachingDefs>(f);
  }
  return *e.reaching;
}

const ValueRanges& AnalysisManager::valueRanges(Function& f) {
  FuncEntry& e = validated(f);
  if (e.ranges) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    e.ranges = std::make_unique<ValueRanges>(f);
  }
  return *e.ranges;
}

void AnalysisManager::recordBoundary(Module& m) {
  // reconcileBoundary re-arms the snapshot with the fingerprints it just
  // computed; between that reconcile and this record nothing in an
  // instrumented sequence touches the module, so the snapshot is current
  // and the rehash can be skipped. New sequences disarm first.
  if (boundary_recorded_) return;
  boundary_.clear();
  for (const auto& f : m.functions())
    boundary_.emplace(f.get(), fingerprintFunction(*f));
  boundary_data_hash_ = fingerprintModuleData(m);
  boundary_recorded_ = true;
}

BoundaryReport AnalysisManager::reconcileBoundary(
    Module& m, const PreservedAnalyses& declared, bool reported_changed) {
  BoundaryReport report;
  if (!boundary_recorded_) return report;
  ++stats_.contract_checks;

  // Reused scratch, swapped with boundary_ below: the two bucket arrays
  // recycle between passes, so the steady state allocates nothing here.
  thread_local std::unordered_map<const Function*, FunctionFingerprint> post;
  post.clear();
  for (const auto& f : m.functions()) {
    const FunctionFingerprint fp = fingerprintFunction(*f);
    post.emplace(f.get(), fp);
    auto it = boundary_.find(f.get());
    if (it == boundary_.end()) {
      // Function added by the pass.
      report.ir_changed = true;
      report.cfg_changed = true;
      if (declared.preservesAny())
        report.violations.push_back(
            {f->name(), "pass declared analyses preserved but added function '" +
                            f->name() + "'"});
      continue;
    }
    if (fp == it->second) continue;
    report.ir_changed = true;
    const bool cfg_changed = fp.cfg != it->second.cfg;
    if (cfg_changed) report.cfg_changed = true;
    if (cfg_changed && declared.preservesCfgShape())
      report.violations.push_back(
          {f->name(),
           "pass declared CFG analyses preserved but changed the block "
           "graph of '" + f->name() + "'"});
    if (declared.preservesInstructionLevel())
      report.violations.push_back(
          {f->name(),
           "pass declared instruction-level analyses preserved but mutated "
           "the body of '" + f->name() + "'"});
  }

  // Functions removed by the pass (in the pre-pass snapshot but not the
  // just-built post map). Their cache entries are keyed by a now-dangling
  // pointer; erase without dereferencing.
  for (const auto& [fn, fp] : boundary_) {
    (void)fp;
    if (post.count(fn) != 0) continue;
    report.ir_changed = true;
    report.cfg_changed = true;
    auto it = funcs_.find(fn);
    if (it != funcs_.end()) {
      if (it->second->hasAny()) ++stats_.invalidations;
      funcs_.erase(it);
    }
    if (declared.preservesAny())
      report.violations.push_back(
          {"", "pass declared analyses preserved but removed a function"});
  }

  const std::uint64_t data_hash = fingerprintModuleData(m);
  if (data_hash != boundary_data_hash_) report.ir_changed = true;

  if (report.ir_changed && !reported_changed)
    report.violations.push_back(
        {"", "pass reported changed=false but the IR changed"});

  stats_.contract_violations += report.violations.size();

  // Re-arm: the post-pass state just fingerprinted is exactly the pre-pass
  // state of the next pass in this sequence, so the snapshot carries over
  // and the next recordBoundary is free.
  std::swap(boundary_, post);
  boundary_data_hash_ = data_hash;
  boundary_recorded_ = true;
  return report;
}

namespace {
thread_local AnalysisManager* g_current_manager = nullptr;
}  // namespace

AnalysisManager* AnalysisManager::current() { return g_current_manager; }

AnalysisManager& AnalysisManager::currentOr(AnalysisManager& fallback) {
  return g_current_manager != nullptr ? *g_current_manager : fallback;
}

AnalysisScope::AnalysisScope(AnalysisManager& m) : prev_(g_current_manager) {
  g_current_manager = &m;
}

AnalysisScope::~AnalysisScope() { g_current_manager = prev_; }

}  // namespace posetrl
