#include "analysis/fast_verifier.h"

#include <string>
#include <string_view>
#include <unordered_set>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "support/hashing.h"

namespace posetrl {

namespace {

void error(VerifyResult& out, const Function& f, const std::string& msg) {
  out.errors.push_back("in @" + f.name() + ": " + msg);
}

}  // namespace

VerifyResult FastVerifier::verify(Module& m, AnalysisManager& am) {
  VerifyResult result;

  // Reused scratch containers: clear() keeps the bucket arrays, so the
  // per-pass steady state allocates nothing here.
  thread_local std::unordered_set<std::string_view> names;
  names.clear();
  for (const auto& f : m.functions())
    if (!names.insert(f->name()).second)
      result.errors.push_back("duplicate function name @" + f->name());

  checkGlobalInits(m, result);

  // Module-scoped use counts (functions, globals), indexed by a module
  // numbering in the scratch slot. The per-function walks below (the
  // fingerprint, the dominator tree, the local numbering) stamp only
  // arguments, blocks and instructions, so these ids survive the loop.
  const std::uint64_t module_gen = Value::nextStampGeneration();
  std::size_t num_symbols = 0;
  for (const auto& g : m.globals())
    g->stampFingerprintId(module_gen, num_symbols++);
  for (const auto& fn : m.functions())
    fn->stampFingerprintId(module_gen, num_symbols++);
  thread_local std::vector<std::size_t> module_uses;
  module_uses.assign(num_symbols, 0);
  const auto countModuleRef = [&](const Value* v) {
    if (v->fingerprintIdValid(module_gen)) ++module_uses[v->fingerprintId()];
  };

  // Operand use counts of the function being verified, indexed by its
  // local numbering; reused across functions and calls.
  thread_local std::vector<std::uint32_t> local_uses;
  thread_local std::vector<const Value*> module_refs;

  for (const auto& fptr : m.functions()) {
    Function& f = *fptr;
    if (f.isDeclaration()) continue;

    // The skip key is the structural fingerprint plus the auxiliary
    // use-count/name key (what the fingerprint deliberately ignores but the
    // verifier checks — use-list drift without an operand change is exactly
    // a bookkeeping corruption). Both come from the fingerprint memo, so an
    // untouched function costs O(1) here.
    std::uint64_t aux = 0;
    const FunctionFingerprint fp = fingerprintFunction(f, &aux);
    am.validate(f);
    const std::uint64_t key = hashCombine(fp.instrs, aux);
    auto cached = clean_.find(&f);
    if (cached != clean_.end() && cached->second.key == key) {
      ++functions_skipped_;
      // The body is unchanged since these refs were taken from its
      // operands, so they are the symbols it still references.
      for (const Value* v : cached->second.module_refs) countModuleRef(v);
      continue;
    }

    // Dense ids through the shared Value scratch slot: blocks, then
    // arguments, then instructions, in layout order. An id answers "is
    // this block one of f's own", "which comes first in a block" and
    // "which use counter" with member loads. The dominator query may
    // re-stamp the slot, so this runs again after it below.
    const std::size_t num_blocks = f.blocks().size();
    std::size_t num_locals = 0;
    const auto numberLocals = [&] {
      const std::uint64_t gen = Value::nextStampGeneration();
      std::size_t id = 0;
      for (const auto& b : f.blocks()) b->stampFingerprintId(gen, id++);
      for (const auto& a : f.args()) a->stampFingerprintId(gen, id++);
      for (const auto& b : f.blocks())
        for (const auto& inst : b->insts()) inst->stampFingerprintId(gen, id++);
      num_locals = id;
      return gen;
    };
    std::uint64_t gen = numberLocals();
    local_uses.assign(num_locals, 0);
    const auto isOwnBlock = [&](const Value* v) {
      return v != nullptr && v->fingerprintIdValid(gen) &&
             v->fingerprintId() < num_blocks;
    };
    module_refs.clear();

    const std::size_t errors_before = result.errors.size();

    // --- single structural walk ---
    if (!f.entry()->predecessors().empty())
      error(result, f, "entry block has predecessors");

    for (const auto& b : f.blocks()) {
      if (b->parent() != &f)
        error(result, f, "block parent pointer wrong: " + b->name());
      if (b->empty()) {
        error(result, f, "empty basic block: " + b->name());
        continue;
      }
      bool seen_non_phi = false;
      std::size_t idx = 0;
      const std::size_t last = b->size() - 1;
      for (const auto& inst : b->insts()) {
        ++instructions_checked_;
        if (inst->parent() != b.get())
          error(result, f, "instruction parent pointer wrong");
        if (inst->isTerminator() != (idx == last))
          error(result, f,
                idx == last ? "block does not end with a terminator"
                            : "terminator in the middle of a block");
        if (inst->opcode() == Opcode::Phi) {
          if (seen_non_phi) error(result, f, "phi after non-phi");
        } else {
          seen_non_phi = true;
        }
        if (!inst->type()->isVoid() && inst->name().empty())
          error(result, f, "unnamed instruction result");
        for (std::size_t s = 0; s < inst->numSuccessors(); ++s)
          if (!isOwnBlock(inst->successor(s)))
            error(result, f, "branch to block of another function");
        // Operand use counts: a local value counts by its id, a function
        // or global is recorded as a module ref, and anything else
        // (constants, values of another function) counts nowhere.
        for (const Value* op : inst->operands()) {
          if (op->fingerprintIdValid(gen)) {
            ++local_uses[op->fingerprintId()];
          } else if (op->fingerprintIdValid(module_gen)) {
            countModuleRef(op);
            module_refs.push_back(op);
          }
        }
        checkInstructionTypes(&f, *inst, result);
        ++idx;
      }
    }

    // --- phi incoming edges vs predecessors ---
    for (const auto& b : f.blocks()) {
      if (b->empty() || b->front()->opcode() != Opcode::Phi) continue;
      const auto preds = b->predecessors();
      for (const auto& inst : b->insts()) {
        if (inst->opcode() != Opcode::Phi) break;
        const auto* phi = static_cast<const PhiInst*>(inst.get());
        if (phi->numIncoming() != preds.size()) {
          error(result, f,
                "phi incoming count != predecessor count of " + b->name());
          continue;
        }
        for (std::size_t i = 0; i < phi->numIncoming(); ++i)
          if (phi->incomingValue(i)->type() != phi->type())
            error(result, f, "phi incoming value type mismatch");
        for (const BasicBlock* p : preds) {
          bool found = false;
          for (std::size_t i = 0; i < phi->numIncoming() && !found; ++i)
            found = phi->incomingBlock(i) == p;
          if (!found)
            error(result, f, "phi missing incoming edge from " + p->name());
        }
      }
    }

    // --- use-list integrity for function-local values (the message is
    // built only on a mismatch) ---
    const auto checkUses = [&](const Value* v, const char* what) {
      const std::size_t expected = local_uses[v->fingerprintId()];
      if (v->numUses() != expected)
        error(result, f,
              "use-list size mismatch for " + (what + v->name()) + " (" +
                  std::to_string(v->numUses()) + " recorded vs " +
                  std::to_string(expected) + " actual)");
    };
    for (const auto& a : f.args()) checkUses(a.get(), "%");
    for (const auto& b : f.blocks()) {
      checkUses(b.get(), "label ");
      for (const auto& inst : b->insts()) checkUses(inst.get(), "%");
    }

    // --- SSA dominance, only on structurally clean functions (the cached
    // dominator tree asserts on malformed CFGs) ---
    if (result.errors.size() == errors_before) {
      const DominatorTree& dt = am.dominators(f);
      gen = numberLocals();
      for (const auto& b : f.blocks()) {
        const bool live = dt.isReachable(b.get());
        for (const auto& inst : b->insts()) {
          for (std::size_t oi = 0; oi < inst->numOperands(); ++oi) {
            auto* def = dynCast<Instruction>(inst->operand(oi));
            if (def == nullptr) continue;
            // Checked in unreachable blocks too.
            if (def->parent() == nullptr || def->parent()->parent() != &f) {
              error(result, f, "operand from another function");
              continue;
            }
            if (!live) continue;
            if (inst->opcode() == Opcode::Phi) {
              if (oi % 2 != 0) continue;  // Block operands.
              auto* phi = static_cast<PhiInst*>(inst.get());
              BasicBlock* pred = phi->incomingBlock(oi / 2);
              if (!dt.isReachable(pred)) continue;
              if (!dt.dominates(def->parent(), pred))
                error(result, f,
                      "phi incoming value does not dominate its edge");
            } else if (def->parent() == b.get()) {
              // Ids follow block order. A def that claims this block but
              // is in no block's list has no id and counts as position 0.
              const bool after = def->fingerprintIdValid(gen)
                                     ? def->fingerprintId() >=
                                           inst->fingerprintId()
                                     : inst.get() == b->front();
              if (after) error(result, f, "use before def in block");
            } else if (!dt.dominates(def->parent(), b.get())) {
              error(result, f, "operand does not dominate use");
            }
          }
        }
      }
    }

    if (result.errors.size() == errors_before) {
      if (cached == clean_.end()) cached = clean_.try_emplace(&f).first;
      cached->second.key = key;
      cached->second.module_refs.assign(module_refs.begin(), module_refs.end());
    } else if (cached != clean_.end()) {
      clean_.erase(cached);
    }
  }

  std::size_t symbol = 0;
  for (const auto& g : m.globals())
    if (g->numUses() != module_uses[symbol++])
      result.errors.push_back("use-list size mismatch for @" + g->name());
  for (const auto& fn : m.functions())
    if (fn->numUses() != module_uses[symbol++])
      result.errors.push_back("use-list size mismatch for @" + fn->name());

  return result;
}

VerifyResult verifyModule(Module& module) {
  AnalysisManager am;
  FastVerifier verifier;
  return verifier.verify(module, am);
}

}  // namespace posetrl
