#include "ir/basic_block.h"

#include <algorithm>
#include <set>

#include "ir/function.h"
#include "support/arena.h"

namespace posetrl {

void* BasicBlock::operator new(std::size_t bytes) {
  return arenaAllocate(bytes);
}

void BasicBlock::operator delete(void* p) noexcept { arenaDeallocate(p); }

void BasicBlock::operator delete(void* p, std::size_t) noexcept {
  arenaDeallocate(p);
}

Instruction* BasicBlock::pushBack(std::unique_ptr<Instruction> inst) {
  Instruction* raw = inst.get();
  POSETRL_CHECK(raw->parent() == nullptr, "instruction already parented");
  raw->parent_ = this;
  insts_.push_back(std::move(inst));
  raw->bumpFunctionGeneration();
  return raw;
}

Instruction* BasicBlock::pushFront(std::unique_ptr<Instruction> inst) {
  Instruction* raw = inst.get();
  POSETRL_CHECK(raw->parent() == nullptr, "instruction already parented");
  raw->parent_ = this;
  insts_.push_front(std::move(inst));
  raw->bumpFunctionGeneration();
  return raw;
}

Instruction* BasicBlock::insertBefore(Instruction* pos,
                                      std::unique_ptr<Instruction> inst) {
  POSETRL_CHECK(pos->parent() == this, "position not in this block");
  Instruction* raw = inst.get();
  POSETRL_CHECK(raw->parent() == nullptr, "instruction already parented");
  for (auto it = insts_.begin(); it != insts_.end(); ++it) {
    if (it->get() == pos) {
      raw->parent_ = this;
      insts_.insert(it, std::move(inst));
      raw->bumpFunctionGeneration();
      return raw;
    }
  }
  POSETRL_UNREACHABLE("position instruction not found in block");
}

Instruction* BasicBlock::terminator() const {
  if (insts_.empty()) return nullptr;
  Instruction* last = insts_.back().get();
  return last->isTerminator() ? last : nullptr;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  std::vector<BasicBlock*> out;
  Instruction* term = terminator();
  if (term == nullptr) return out;
  for (std::size_t i = 0; i < term->numSuccessors(); ++i) {
    out.push_back(term->successor(i));
  }
  return out;
}

std::vector<BasicBlock*> BasicBlock::predecessors() const {
  std::vector<BasicBlock*> out;
  for (Instruction* user : users()) {
    if (!user->isTerminator()) continue;
    bool targets_this = false;
    for (std::size_t i = 0; i < user->numSuccessors(); ++i) {
      if (user->successor(i) == this) {
        targets_this = true;
        break;
      }
    }
    if (!targets_this) continue;
    BasicBlock* pred = user->parent();
    if (std::find(out.begin(), out.end(), pred) == out.end()) {
      out.push_back(pred);
    }
  }
  return out;
}

BasicBlock* BasicBlock::singlePredecessor() const {
  auto preds = predecessors();
  return preds.size() == 1 ? preds[0] : nullptr;
}

BasicBlock* BasicBlock::singleSuccessor() const {
  auto succs = successors();
  if (succs.empty()) return nullptr;
  for (BasicBlock* s : succs) {
    if (s != succs[0]) return nullptr;
  }
  return succs[0];
}

bool BasicBlock::hasPredecessor(BasicBlock* bb) const {
  auto preds = predecessors();
  return std::find(preds.begin(), preds.end(), bb) != preds.end();
}

BasicBlock::iterator BasicBlock::firstNonPhi() {
  auto it = insts_.begin();
  while (it != insts_.end() && (*it)->opcode() == Opcode::Phi) ++it;
  return it;
}

std::vector<PhiInst*> BasicBlock::phis() const {
  std::vector<PhiInst*> out;
  for (const auto& inst : insts_) {
    if (inst->opcode() != Opcode::Phi) break;
    out.push_back(static_cast<PhiInst*>(inst.get()));
  }
  return out;
}

void BasicBlock::removeFromSuccessorPhis() {
  for (BasicBlock* succ : successors()) {
    for (PhiInst* phi : succ->phis()) {
      if (phi->indexOfBlock(this) != static_cast<std::size_t>(-1)) {
        phi->removeIncoming(this);
      }
    }
  }
}

BasicBlock* BasicBlock::splitAt(Instruction* pos,
                                const std::string& new_name) {
  POSETRL_CHECK(pos->parent() == this, "split position not in block");
  BasicBlock* tail = parent_->addBlockAfter(this, new_name);
  // Move [pos, end) into tail, preserving order.
  auto it = insts_.begin();
  while (it != insts_.end() && it->get() != pos) ++it;
  POSETRL_CHECK(it != insts_.end(), "split position vanished");
  while (it != insts_.end()) {
    std::unique_ptr<Instruction> owned = std::move(*it);
    it = insts_.erase(it);
    owned->parent_ = nullptr;
    tail->pushBack(std::move(owned));
  }
  // If the terminator moved, successor phis now receive control from the
  // tail block, not from this one.
  if (Instruction* term = tail->terminator()) {
    std::set<BasicBlock*> seen;
    for (std::size_t i = 0; i < term->numSuccessors(); ++i) {
      BasicBlock* succ = term->successor(i);
      if (!seen.insert(succ).second) continue;
      for (PhiInst* phi : succ->phis()) {
        const std::size_t idx = phi->indexOfBlock(this);
        if (idx != static_cast<std::size_t>(-1)) {
          phi->setOperand(2 * idx + 1, tail);
        }
      }
    }
  }
  return tail;
}

void BasicBlock::eraseFromParent() {
  POSETRL_CHECK(parent_ != nullptr, "block has no parent");
  parent_->eraseBlock(this);
}

}  // namespace posetrl
