/// \file scalar_misc.cpp
/// The remaining Oz scalar passes: -speculative-execution, -jump-threading,
/// -correlated-propagation, -tailcallelim, -float2int, -div-rem-pairs,
/// -lower-expect, -lower-constant-intrinsics, -alignment-from-assumptions,
/// -memcpyopt, and -mldst-motion.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/ir_builder.h"
#include "ir/module.h"
#include "passes/all_passes.h"
#include "passes/transform_utils.h"

namespace posetrl {
namespace {

/// Hoists a few cheap, pure instructions from conditional successors into
/// the branching block (ILP exposure; mirrors -speculative-execution).
class SpeculativeExecutionPass : public FunctionPass {
 public:
  std::string_view name() const override { return "speculative-execution"; }
  // Hoists instructions into existing predecessors; CFG untouched.
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

  static constexpr std::size_t kMaxHoist = 4;

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      auto* cbr = dynCast<CondBrInst>(bb->terminator());
      if (cbr == nullptr) continue;
      for (BasicBlock* succ : {cbr->thenBlock(), cbr->elseBlock()}) {
        if (succ->singlePredecessor() != bb.get()) continue;
        changed |= hoistFrom(*succ, cbr);
      }
    }
    return changed;
  }

 private:
  /// Hoists up to kMaxHoist speculatable instructions of \p from to just
  /// before \p before (its single predecessor's branch).
  bool hoistFrom(BasicBlock& from, Instruction* before) {
    bool changed = false;
    std::size_t hoisted = 0;
    std::vector<Instruction*> insts;
    for (const auto& inst : from.insts()) insts.push_back(inst.get());
    for (Instruction* inst : insts) {
      if (hoisted >= kMaxHoist) break;
      if (inst->isTerminator() || inst->opcode() == Opcode::Phi) continue;
      if (inst->mayReadMemory() || inst->mayWriteMemory()) continue;
      if (inst->mayTrap() || inst->type()->isVoid()) continue;
      if (inst->opcode() == Opcode::Alloca) continue;
      // All operands must be defined at the hoist point.
      bool available = true;
      for (const Value* op : inst->operands()) {
        const auto* d = dynCast<Instruction>(op);
        if (d != nullptr && d->parent() == &from) available = false;
      }
      if (!available) continue;
      inst->moveBefore(before);
      ++hoisted;
      changed = true;
    }
    return changed;
  }
};

/// Threads edges through blocks that only merge phis into a conditional
/// branch: when a predecessor's incoming phi value decides the branch, the
/// predecessor jumps straight to the decided target.
class JumpThreadingPass : public FunctionPass {
 public:
  std::string_view name() const override { return "jump-threading"; }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      for (const auto& bb : f.blocks()) {
        if (threadThrough(*bb, f)) {
          local = true;
          changed = true;
          break;  // CFG changed; restart scan.
        }
      }
    }
    if (changed) {
      removeUnreachableBlocks(f);
      foldTrivialPhis(f);
    }
    return changed;
  }

 private:
  bool threadThrough(BasicBlock& bb, Function& f) {
    if (&bb == f.entry()) return false;
    auto* cbr = dynCast<CondBrInst>(bb.terminator());
    if (cbr == nullptr) return false;
    auto* cond_phi = dynCast<PhiInst>(cbr->condition());
    if (cond_phi == nullptr || cond_phi->parent() != &bb) return false;
    // The block must carry no other computation (so bypassing it is safe)
    // and no other phis (their merge would be lost on the threaded path).
    if (bb.phis().size() != 1 || bb.size() != 2) return false;
    if (cbr->thenBlock() == &bb || cbr->elseBlock() == &bb) return false;
    // Threaded paths bypass the phi's definition, so nothing else may
    // consume it.
    if (cond_phi->numUses() != 1) return false;

    for (std::size_t i = 0; i < cond_phi->numIncoming(); ++i) {
      auto* c = dynCast<ConstantInt>(cond_phi->incomingValue(i));
      if (c == nullptr) continue;
      BasicBlock* pred = cond_phi->incomingBlock(i);
      BasicBlock* target = c->isZero() ? cbr->elseBlock() : cbr->thenBlock();
      if (target == &bb || pred == &bb) continue;
      // Thread pred -> target directly.
      Instruction* pterm = pred->terminator();
      for (std::size_t s = 0; s < pterm->numSuccessors(); ++s) {
        if (pterm->successor(s) == &bb) pterm->setSuccessor(s, target);
      }
      cond_phi->removeIncoming(pred);
      // target's phis gain an incoming from pred; the value that flowed
      // through bb for this edge is the phi value (only cond_phi exists,
      // and its uses beyond the branch would block threading).
      for (PhiInst* phi : target->phis()) {
        const std::size_t bidx = phi->indexOfBlock(&bb);
        if (bidx == static_cast<std::size_t>(-1)) continue;
        Value* v = phi->incomingValue(bidx);
        if (v == cond_phi) v = c;
        if (phi->indexOfBlock(pred) == static_cast<std::size_t>(-1)) {
          phi->addIncoming(v, pred);
        }
      }
      return true;
    }
    return false;
  }
};

/// Replaces comparisons that are implied by a dominating branch condition:
/// inside the (solely) true-reached region the condition is true, inside
/// the false-reached region it is false.
class CorrelatedPropagationPass : public FunctionPass {
 public:
  std::string_view name() const override { return "correlated-propagation"; }
  // Rewrites comparison operands to constants; branches stay in place.
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    Module& m = *f.parent();
    AnalysisManager local_am;
    const DominatorTree& dt =
        AnalysisManager::currentOr(local_am).dominators(f);
    for (const auto& bb : f.blocks()) {
      auto* cbr = dynCast<CondBrInst>(bb->terminator());
      if (cbr == nullptr) continue;
      auto* cond = dynCast<ICmpInst>(cbr->condition());
      if (cond == nullptr) continue;
      if (cbr->thenBlock() == cbr->elseBlock()) continue;
      for (bool branch_true : {true, false}) {
        BasicBlock* region =
            branch_true ? cbr->thenBlock() : cbr->elseBlock();
        if (region->singlePredecessor() != bb.get()) continue;
        changed |= propagateIn(region, cond, branch_true, dt, m);
      }
    }
    changed |= deleteDeadInstructions(f);
    return changed;
  }

 private:
  /// Rewrites recomputations of \p cond (same predicate and operands, or
  /// the inverse predicate) in every block dominated by \p region.
  bool propagateIn(BasicBlock* region, ICmpInst* cond, bool value,
                   const DominatorTree& dt, Module& m) {
    bool changed = false;
    std::vector<BasicBlock*> work{region};
    while (!work.empty()) {
      BasicBlock* bb = work.back();
      work.pop_back();
      std::vector<Instruction*> insts;
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
      for (Instruction* inst : insts) {
        auto* cmp = dynCast<ICmpInst>(inst);
        if (cmp == nullptr || cmp == cond) continue;
        if (cmp->lhs() != cond->lhs() || cmp->rhs() != cond->rhs()) continue;
        if (cmp->pred() == cond->pred()) {
          replaceAndErase(cmp, m.i1Const(value));
          changed = true;
        } else if (cmp->pred() == ICmpInst::inverse(cond->pred())) {
          replaceAndErase(cmp, m.i1Const(!value));
          changed = true;
        }
      }
      for (BasicBlock* child : dt.children(bb)) work.push_back(child);
    }
    return changed;
  }
};

/// Turns self-recursive tail calls into loops.
class TailCallElimPass : public FunctionPass {
 public:
  std::string_view name() const override { return "tailcallelim"; }

 protected:
  bool runOnFunction(Function& f) override {
    // Find tail sites: call of f immediately followed by a return of the
    // call's result (or a bare return for void).
    struct TailSite {
      CallInst* call;
      RetInst* ret;
    };
    std::vector<TailSite> sites;
    for (const auto& bb : f.blocks()) {
      if (bb->size() < 2) continue;
      auto* ret = dynCast<RetInst>(bb->terminator());
      if (ret == nullptr) continue;
      // The instruction just before the terminator.
      auto it = bb->insts().end();
      --it;
      --it;
      auto* call = dynCast<CallInst>(it->get());
      if (call == nullptr || call->calledFunction() != &f) continue;
      if (ret->hasValue() && ret->value() != call) continue;
      if (!ret->hasValue() && !call->type()->isVoid()) continue;
      // The result may only feed the return, or the call can't be elided.
      if (!call->type()->isVoid() && call->numUses() != 1) continue;
      sites.push_back({call, ret});
    }
    if (sites.empty()) return false;
    if (!f.entry()->phis().empty()) return false;  // Degenerate entry.

    Module& m = *f.parent();
    // New entry that jumps to the old entry (which becomes the loop head).
    BasicBlock* head = f.entry();
    BasicBlock* new_entry = f.addBlock("tailrecurse.entry");
    f.makeEntry(new_entry);
    IRBuilder b(&m);
    b.setInsertPoint(new_entry);
    b.br(head);

    // One phi per argument.
    std::vector<PhiInst*> arg_phis;
    for (std::size_t i = 0; i < f.numArgs(); ++i) {
      auto phi = std::make_unique<PhiInst>(f.arg(i)->type(),
                                           f.nextValueName());
      auto* raw = static_cast<PhiInst*>(head->pushFront(std::move(phi)));
      arg_phis.push_back(raw);
    }
    for (std::size_t i = 0; i < f.numArgs(); ++i) {
      f.arg(i)->replaceAllUsesWith(arg_phis[i]);
      arg_phis[i]->addIncoming(f.arg(i), new_entry);
    }

    // Rewrite each tail site into a back edge.
    for (const TailSite& site : sites) {
      BasicBlock* sb = site.call->parent();
      for (std::size_t i = 0; i < f.numArgs(); ++i) {
        arg_phis[i]->addIncoming(site.call->arg(i), sb);
      }
      site.ret->eraseFromParent();
      POSETRL_CHECK(!site.call->hasUses() ||
                        (site.call->numUses() == 0),
                    "tail call result still used");
      site.call->eraseFromParent();
      b.setInsertPoint(sb);
      b.br(head);
    }
    foldTrivialPhis(f);
    return true;
  }
};

/// Demotes float arithmetic whose inputs come from narrow integers and
/// whose only consumer converts back to integer (exact in f64 for <=16-bit
/// sources with one add/sub/mul).
class Float2IntPass : public FunctionPass {
 public:
  std::string_view name() const override { return "float2int"; }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    Module& m = *f.parent();
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      std::vector<Instruction*> insts;
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
      for (Instruction* inst : insts) {
        if (inst->opcode() != Opcode::FPToSI) continue;
        auto* fop = dynCast<Instruction>(inst->operand(0));
        if (fop == nullptr || fop->parent() == nullptr) continue;
        Opcode int_op;
        switch (fop->opcode()) {
          case Opcode::FAdd: int_op = Opcode::Add; break;
          case Opcode::FSub: int_op = Opcode::Sub; break;
          case Opcode::FMul: int_op = Opcode::Mul; break;
          default: continue;
        }
        Value* a = narrowIntSource(fop->operand(0));
        Value* b = narrowIntSource(fop->operand(1));
        if (a == nullptr || b == nullptr) continue;
        // Compute in i64 (exact), then adjust to the target width.
        Value* wa = widenTo64(a, inst, m, f);
        Value* wb = widenTo64(b, inst, m, f);
        auto* op = new BinaryInst(int_op, m.types().i64(), wa, wb,
                                  f.nextValueName());
        inst->parent()->insertBefore(inst, std::unique_ptr<Instruction>(op));
        Value* result = op;
        if (inst->type() != m.types().i64()) {
          auto* tr = new CastInst(Opcode::Trunc, inst->type(), result,
                                  f.nextValueName());
          inst->parent()->insertBefore(inst,
                                       std::unique_ptr<Instruction>(tr));
          result = tr;
        }
        replaceAndErase(inst, result);
        changed = true;
      }
    }
    changed |= deleteDeadInstructions(f);
    return changed;
  }

 private:
  /// The narrow (<= 16-bit) integer behind a sitofp, or an exactly
  /// representable small float constant; nullptr otherwise.
  static Value* narrowIntSource(Value* v) {
    if (auto* conv = dynCast<Instruction>(v)) {
      if (conv->opcode() == Opcode::SIToFP) {
        Type* src = conv->operand(0)->type();
        if (src->isInteger() && src->intBits() <= 16) {
          return conv->operand(0);
        }
      }
      return nullptr;
    }
    if (auto* cf = dynCast<ConstantFloat>(v)) {
      const double d = cf->value();
      if (d == static_cast<double>(static_cast<std::int64_t>(d)) &&
          d >= -32768.0 && d <= 32767.0) {
        return cf;  // Marker; widened specially below.
      }
    }
    return nullptr;
  }

  static Value* widenTo64(Value* v, Instruction* before, Module& m,
                          Function& f) {
    if (auto* cf = dynCast<ConstantFloat>(v)) {
      return m.i64Const(static_cast<std::int64_t>(cf->value()));
    }
    if (v->type() == m.types().i64()) return v;
    auto* ext = new CastInst(Opcode::SExt, m.types().i64(), v,
                             f.nextValueName());
    before->parent()->insertBefore(before,
                                   std::unique_ptr<Instruction>(ext));
    return ext;
  }
};

/// When both x/y and x%y are computed, rewrites the remainder as
/// x - (x/y)*y, trading a second division for a multiply-subtract.
class DivRemPairsPass : public FunctionPass {
 public:
  std::string_view name() const override { return "div-rem-pairs"; }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    Module& m = *f.parent();
    AnalysisManager local_am;
    const DominatorTree& dt =
        AnalysisManager::currentOr(local_am).dominators(f);
    bool changed = false;
    // Collect divisions first.
    std::vector<Instruction*> divs;
    for (const auto& bb : f.blocks()) {
      for (const auto& inst : bb->insts()) {
        if (inst->opcode() == Opcode::SDiv ||
            inst->opcode() == Opcode::UDiv) {
          divs.push_back(inst.get());
        }
      }
    }
    for (Instruction* div : divs) {
      const Opcode rem_op =
          div->opcode() == Opcode::SDiv ? Opcode::SRem : Opcode::URem;
      std::vector<Instruction*> rems;
      for (const auto& bb : f.blocks()) {
        for (const auto& inst : bb->insts()) {
          if (inst->opcode() == rem_op &&
              inst->operand(0) == div->operand(0) &&
              inst->operand(1) == div->operand(1) &&
              dt.dominatesUse(div, inst.get())) {
            rems.push_back(inst.get());
          }
        }
      }
      for (Instruction* rem : rems) {
        auto* mul = new BinaryInst(Opcode::Mul, rem->type(), div,
                                   div->operand(1), f.nextValueName());
        rem->parent()->insertBefore(rem, std::unique_ptr<Instruction>(mul));
        auto* sub = new BinaryInst(Opcode::Sub, rem->type(),
                                   rem->operand(0), mul, f.nextValueName());
        rem->parent()->insertBefore(rem, std::unique_ptr<Instruction>(sub));
        replaceAndErase(rem, sub);
        changed = true;
      }
      (void)m;
    }
    return changed;
  }
};

/// Lowers pr.expect calls to their first argument.
class LowerExpectPass : public FunctionPass {
 public:
  std::string_view name() const override { return "lower-expect"; }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      std::vector<Instruction*> insts;
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
      for (Instruction* inst : insts) {
        auto* call = dynCast<CallInst>(inst);
        if (call == nullptr) continue;
        Function* callee = call->calledFunction();
        if (callee == nullptr ||
            callee->intrinsicId() != IntrinsicId::Expect) {
          continue;
        }
        replaceAndErase(call, call->arg(0));
        changed = true;
      }
    }
    return changed;
  }
};

/// Folds/removes optimizer-hint intrinsics left in the IR: satisfied
/// assumes and any remaining expect calls.
class LowerConstantIntrinsicsPass : public FunctionPass {
 public:
  std::string_view name() const override {
    return "lower-constant-intrinsics";
  }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      std::vector<Instruction*> insts;
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
      for (Instruction* inst : insts) {
        auto* call = dynCast<CallInst>(inst);
        if (call == nullptr) continue;
        Function* callee = call->calledFunction();
        if (callee == nullptr) continue;
        if (callee->intrinsicId() == IntrinsicId::Expect) {
          replaceAndErase(call, call->arg(0));
          changed = true;
        } else if (callee->intrinsicId() == IntrinsicId::Assume) {
          if (auto* c = dynCast<ConstantInt>(call->arg(0))) {
            (void)c;
            call->eraseFromParent();
            changed = true;
          }
        }
      }
    }
    return changed;
  }
};

/// Transfers pr.assume_aligned facts onto the alignment metadata of loads
/// and stores through the asserted pointer, then drops the assumption.
class AlignmentFromAssumptionsPass : public FunctionPass {
 public:
  std::string_view name() const override {
    return "alignment-from-assumptions";
  }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      std::vector<Instruction*> insts;
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
      for (Instruction* inst : insts) {
        auto* call = dynCast<CallInst>(inst);
        if (call == nullptr) continue;
        Function* callee = call->calledFunction();
        if (callee == nullptr ||
            callee->intrinsicId() != IntrinsicId::AssumeAligned) {
          continue;
        }
        Value* ptr = call->arg(0);
        auto* align_c = dynCast<ConstantInt>(call->arg(1));
        if (align_c != nullptr && align_c->value() > 0) {
          const auto align = static_cast<unsigned>(align_c->value());
          const auto mark = [&](Value* p, unsigned a) {
            for (Instruction* user : p->users()) {
              if (auto* load = dynCast<LoadInst>(user)) {
                if (load->pointer() == p && load->alignment() < a) {
                  load->setAlignment(a);
                  changed = true;
                }
              } else if (auto* store = dynCast<StoreInst>(user)) {
                if (store->pointer() == p && store->alignment() < a) {
                  store->setAlignment(a);
                  changed = true;
                }
              }
            }
          };
          mark(ptr, align);
          // Element accesses through geps of an aligned base inherit the
          // gcd of the base alignment and the element size.
          for (Instruction* user : ptr->users()) {
            auto* gep = dynCast<GepInst>(user);
            if (gep == nullptr || gep->base() != ptr) continue;
            const std::uint64_t elem =
                gep->type()->pointee()->byteSize();
            if (elem == 0) continue;
            const unsigned derived =
                static_cast<unsigned>(std::min<std::uint64_t>(align, elem));
            if (derived >= 8) mark(gep, derived);
          }
        }
        call->eraseFromParent();
        changed = true;
      }
    }
    return changed;
  }
};

/// Merges runs of adjacent constant stores with a uniform byte pattern into
/// a single memset intrinsic call.
class MemCpyOptPass : public FunctionPass {
 public:
  std::string_view name() const override { return "memcpyopt"; }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

  static constexpr std::size_t kMinRun = 4;

 protected:
  bool runOnFunction(Function& f) override {
    Module& m = *f.parent();
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      changed |= mergeInBlock(*bb, m, f);
    }
    changed |= deleteDeadInstructions(f);
    return changed;
  }

 private:
  struct Candidate {
    StoreInst* store;
    GepInst* gep;
    Value* base;
    std::int64_t index;
    std::uint8_t byte;
    Type* elem;
  };

  bool mergeInBlock(BasicBlock& bb, Module& m, Function& f) {
    // Collect maximal runs of consecutive store(gep(base,[0,c]), K)
    // instructions (allowing the geps themselves in between).
    std::vector<Candidate> run;
    std::vector<std::vector<Candidate>> runs;
    const auto flush = [&]() {
      if (run.size() >= kMinRun) runs.push_back(run);
      run.clear();
    };
    for (const auto& inst : bb.insts()) {
      if (auto* gep = dynCast<GepInst>(inst.get())) {
        (void)gep;  // Geps feeding the stores are allowed inside a run.
        continue;
      }
      auto* store = dynCast<StoreInst>(inst.get());
      if (store == nullptr) {
        flush();
        continue;
      }
      Candidate c;
      if (!matchStore(store, c)) {
        flush();
        continue;
      }
      if (!run.empty() &&
          (run.back().base != c.base || run.back().byte != c.byte ||
           run.back().elem != c.elem ||
           run.back().index + 1 != c.index)) {
        flush();
      }
      run.push_back(c);
    }
    flush();

    for (const auto& r : runs) {
      // Replace the run with one memset over [first.index, last.index].
      StoreInst* first = r.front().store;
      Type* elem = r.front().elem;
      auto gep = std::make_unique<GepInst>(
          m.types().ptrTo(elem), r.front().gep->sourceElement(),
          r.front().base,
          std::vector<Value*>{m.i64Const(0), m.i64Const(r.front().index)},
          f.nextValueName());
      Instruction* start_ptr =
          first->parent()->insertBefore(first, std::move(gep));
      Function* memset_fn = m.getMemsetFor(elem);
      auto call = std::make_unique<CallInst>(
          m.types().voidTy(), memset_fn,
          std::vector<Value*>{
              start_ptr,
              m.constantInt(m.types().i8(),
                            static_cast<std::int64_t>(r.front().byte)),
              m.i64Const(static_cast<std::int64_t>(r.size()))},
          "");
      first->parent()->insertBefore(first, std::move(call));
      for (const Candidate& c : r) c.store->eraseFromParent();
    }
    return !runs.empty();
  }

  static bool matchStore(StoreInst* store, Candidate& out) {
    auto* value = dynCast<ConstantInt>(store->value());
    if (value == nullptr) return false;
    auto* gep = dynCast<GepInst>(store->pointer());
    if (gep == nullptr || gep->numIndices() != 2) return false;
    auto* zero = dynCast<ConstantInt>(gep->index(0));
    auto* idx = dynCast<ConstantInt>(gep->index(1));
    if (zero == nullptr || !zero->isZero() || idx == nullptr) return false;
    if (!gep->sourceElement()->isArray()) return false;
    Type* elem = gep->sourceElement()->arrayElement();
    if (!elem->isInteger()) return false;
    // Uniform byte pattern.
    const std::uint64_t raw = value->zextValue();
    const std::uint8_t byte = static_cast<std::uint8_t>(raw & 0xff);
    for (std::uint64_t b = 0; b < elem->byteSize(); ++b) {
      if (((raw >> (8 * b)) & 0xff) != byte) return false;
    }
    out = {store, gep, gep->base(), idx->value(), byte, elem};
    return true;
  }
};

/// Merges identical-pointer stores from both arms of a diamond into the
/// join block (merged-load/store motion).
class MLSMPass : public FunctionPass {
 public:
  std::string_view name() const override { return "mldst-motion"; }
  // Sinks/hoists memory ops between existing diamond blocks.
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    Module& m = *f.parent();
    bool changed = false;
    for (const auto& bb : f.blocks()) {
      auto* cbr = dynCast<CondBrInst>(bb->terminator());
      if (cbr == nullptr) continue;
      BasicBlock* t = cbr->thenBlock();
      BasicBlock* e = cbr->elseBlock();
      if (t == e) continue;
      if (t->singlePredecessor() != bb.get() ||
          e->singlePredecessor() != bb.get()) {
        continue;
      }
      BasicBlock* join = t->singleSuccessor();
      if (join == nullptr || e->singleSuccessor() != join) continue;
      if (join->predecessors().size() != 2) continue;
      // Last non-terminator in each arm must be a store to the same
      // pointer, with the pointer defined above the diamond.
      StoreInst* st = lastStore(*t);
      StoreInst* se = lastStore(*e);
      if (st == nullptr || se == nullptr) continue;
      if (st->pointer() != se->pointer()) continue;
      auto* pdef = dynCast<Instruction>(st->pointer());
      if (pdef != nullptr && (pdef->parent() == t || pdef->parent() == e)) {
        continue;
      }
      // Values must be available at the join (they are: defined in their
      // arm or above, and the phi reads them on the matching edge).
      auto phi = std::make_unique<PhiInst>(st->value()->type(),
                                           f.nextValueName());
      auto* phi_raw = static_cast<PhiInst*>(join->pushFront(std::move(phi)));
      phi_raw->addIncoming(st->value(), t);
      phi_raw->addIncoming(se->value(), e);
      auto merged = std::make_unique<StoreInst>(m.types().voidTy(), phi_raw,
                                                st->pointer());
      BasicBlock::iterator pos = join->firstNonPhi();
      if (pos == join->end()) {
        join->pushBack(std::move(merged));
      } else {
        join->insertBefore(pos->get(), std::move(merged));
      }
      st->eraseFromParent();
      se->eraseFromParent();
      changed = true;
    }
    return changed;
  }

 private:
  static StoreInst* lastStore(BasicBlock& bb) {
    if (bb.size() < 2) return nullptr;
    auto it = bb.insts().end();
    --it;  // Terminator.
    --it;  // Candidate store.
    return dynCast<StoreInst>(it->get());
  }
};

}  // namespace

std::unique_ptr<Pass> createSpeculativeExecutionPass() {
  return std::make_unique<SpeculativeExecutionPass>();
}
std::unique_ptr<Pass> createJumpThreadingPass() {
  return std::make_unique<JumpThreadingPass>();
}
std::unique_ptr<Pass> createCorrelatedPropagationPass() {
  return std::make_unique<CorrelatedPropagationPass>();
}
std::unique_ptr<Pass> createTailCallElimPass() {
  return std::make_unique<TailCallElimPass>();
}
std::unique_ptr<Pass> createFloat2IntPass() {
  return std::make_unique<Float2IntPass>();
}
std::unique_ptr<Pass> createDivRemPairsPass() {
  return std::make_unique<DivRemPairsPass>();
}
std::unique_ptr<Pass> createLowerExpectPass() {
  return std::make_unique<LowerExpectPass>();
}
std::unique_ptr<Pass> createLowerConstantIntrinsicsPass() {
  return std::make_unique<LowerConstantIntrinsicsPass>();
}
std::unique_ptr<Pass> createAlignmentFromAssumptionsPass() {
  return std::make_unique<AlignmentFromAssumptionsPass>();
}
std::unique_ptr<Pass> createMemCpyOptPass() {
  return std::make_unique<MemCpyOptPass>();
}
std::unique_ptr<Pass> createMLSMPass() {
  return std::make_unique<MLSMPass>();
}

}  // namespace posetrl
