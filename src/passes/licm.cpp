/// \file licm.cpp
/// -licm analog (hoists loop-invariant pure computation to the preheader;
/// hoists invariant loads out of write-free loops) and the -loop-sink
/// analog (moves loop computations used only after the loop into the exit,
/// the code-sinking direction Oz favours).

#include <set>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "analysis/loop_info.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "passes/all_passes.h"
#include "passes/loop_utils.h"
#include "passes/transform_utils.h"

namespace posetrl {
namespace {

class LICMPass : public FunctionPass {
 public:
  std::string_view name() const override { return "licm"; }
  // Moves invariant instructions to existing preheaders; CFG untouched.
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    AnalysisManager local_am;
    AnalysisManager& am = AnalysisManager::currentOr(local_am);
    // Both queries run before any instruction moves; nothing below queries
    // the manager again (a re-query after a move would rebuild the LoopInfo
    // whose Loop objects this pass iterates). LICM never changes the CFG,
    // so this one tree answers every candidate load's dominance query.
    const DominatorTree& dt = am.dominators(f);
    const LoopInfo& li = am.loopInfo(f);
    // Outermost-first so hoisted code can keep moving outward on later
    // iterations of the inner loops' own processing.
    auto loops = li.loopsInnermostFirst();
    for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
      changed |= hoistFromLoop(**it, dt);
    }
    return changed;
  }

 private:
  bool hoistFromLoop(Loop& loop, const DominatorTree& dt) {
    BasicBlock* ph = loop.preheader();
    if (ph == nullptr) return false;
    Instruction* ph_term = ph->terminator();
    if (ph_term == nullptr) return false;

    // Loads are hoistable only when nothing in the loop writes memory.
    bool loop_writes = false;
    for (BasicBlock* bb : loop.blocks()) {
      for (const auto& inst : bb->insts()) {
        if (inst->mayWriteMemory()) loop_writes = true;
      }
    }

    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      for (BasicBlock* bb : loop.blocks()) {
        std::vector<Instruction*> insts;
        for (const auto& inst : bb->insts()) insts.push_back(inst.get());
        for (Instruction* inst : insts) {
          if (!canHoist(*inst, loop, loop_writes, dt)) continue;
          bool invariant_ops = true;
          for (const Value* op : inst->operands()) {
            if (!isLoopInvariant(loop, op)) invariant_ops = false;
          }
          if (!invariant_ops) continue;
          inst->moveBefore(ph_term);
          changed = true;
          local = true;
        }
      }
    }
    return changed;
  }

  /// Pure, non-trapping, speculatively executable instructions — plus loads
  /// from invariant pointers when the loop is write-free (a load that runs
  /// in the loop may not run at the preheader, but hoisting a load is safe
  /// here because a trap would already be possible on the first iteration;
  /// we stay stricter and additionally require the load's block to dominate
  /// every latch, i.e. it executes on every iteration).
  bool canHoist(const Instruction& inst, Loop& loop, bool loop_writes,
                const DominatorTree& dt) const {
    switch (inst.opcode()) {
      case Opcode::Phi:
      case Opcode::Alloca:
      case Opcode::Store:
      case Opcode::Call:
        return false;
      case Opcode::Load: {
        if (loop_writes) return false;
        // Must be guaranteed to execute: block dominates the latch.
        BasicBlock* latch = loop.singleLatch();
        if (latch == nullptr) return false;
        return dt.dominates(inst.parent(), latch);
      }
      default:
        if (inst.isTerminator()) return false;
        if (inst.mayTrap()) return false;
        return !inst.type()->isVoid();
    }
  }
};

class LoopSinkPass : public FunctionPass {
 public:
  std::string_view name() const override { return "loop-sink"; }
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::cfg();
  }

 protected:
  bool runOnFunction(Function& f) override {
    bool changed = false;
    AnalysisManager local_am;
    const LoopInfo& li = AnalysisManager::currentOr(local_am).loopInfo(f);
    for (Loop* loop : li.loopsInnermostFirst()) {
      changed |= sinkFromLoop(*loop);
    }
    return changed;
  }

 private:
  bool sinkFromLoop(Loop& loop) {
    const auto exits = loop.exitBlocks();
    if (exits.size() != 1) return false;
    BasicBlock* exit = exits[0];
    if (!loop.hasDedicatedExits()) return false;

    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      for (BasicBlock* bb : loop.blocks()) {
        std::vector<Instruction*> insts;
        for (const auto& inst : bb->insts()) insts.push_back(inst.get());
        for (Instruction* inst : insts) {
          if (inst->isTerminator() || inst->opcode() == Opcode::Phi) continue;
          if (inst->type()->isVoid()) continue;
          if (inst->mayReadMemory() || inst->mayWriteMemory()) continue;
          if (inst->mayTrap()) continue;
          // Operands must remain valid at the exit.
          bool invariant_ops = true;
          for (const Value* op : inst->operands()) {
            if (!isLoopInvariant(loop, op)) invariant_ops = false;
          }
          if (!invariant_ops) continue;
          // Every use must be outside the loop and not a phi (phi uses
          // require the value at the edge's predecessor).
          bool sinkable = inst->hasUses();
          for (Instruction* user : inst->users()) {
            if (user->opcode() == Opcode::Phi ||
                loop.contains(user->parent())) {
              sinkable = false;
            }
          }
          if (!sinkable) continue;
          std::unique_ptr<Instruction> owned = inst->removeFromParent();
          Instruction* raw = owned.get();
          BasicBlock::iterator pos = exit->firstNonPhi();
          if (pos == exit->end()) {
            exit->pushBack(std::move(owned));
          } else {
            exit->insertBefore(pos->get(), std::move(owned));
          }
          (void)raw;
          changed = true;
          local = true;
        }
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> createLICMPass() { return std::make_unique<LICMPass>(); }

std::unique_ptr<Pass> createLoopSinkPass() {
  return std::make_unique<LoopSinkPass>();
}

}  // namespace posetrl
