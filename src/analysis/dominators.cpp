#include "analysis/dominators.h"

#include <algorithm>
#include <bit>

#include "analysis/cfg.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "support/error.h"

namespace posetrl {

const std::vector<BasicBlock*> DominatorTree::kEmptyChildren;
const std::set<BasicBlock*> DominatorTree::kEmptyFrontier;

std::size_t DominatorTree::slotFor(const BasicBlock* b) const {
  // Fibonacci hashing of the address; blocks are at least 16-byte aligned.
  const auto bits = reinterpret_cast<std::uintptr_t>(b) >> 4;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(bits) * 0x9E3779B97F4A7C15ull) >>
      slot_shift_);
}

std::uint32_t DominatorTree::indexOf(const BasicBlock* b) const {
  if (slots_.empty() || b == nullptr) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slotFor(b);; i = (i + 1) & mask) {
    if (slots_[i].first == b) return slots_[i].second;
    if (slots_[i].first == nullptr) return kNone;
  }
}

DominatorTree::DominatorTree(Function& f) : rpo_(reversePostOrder(f)) {
  const auto n = static_cast<std::uint32_t>(rpo_.size());
  if (n == 0) return;

  // Block -> RPO index table: open addressing with linear probing, sized
  // once to a load factor of at most 1/2.
  const std::size_t capacity = std::bit_ceil(2 * std::size_t{n});
  slots_.assign(capacity, {nullptr, kNone});
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::size_t s = slotFor(rpo_[i]);
    while (slots_[s].first != nullptr) s = (s + 1) & (capacity - 1);
    slots_[s] = {rpo_[i], i};
  }

  // Unique reachable predecessors per block, in the discovery order of
  // BasicBlock::predecessors() (terminator users that branch here).
  pred_begin_.reserve(n + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    pred_begin_.push_back(static_cast<std::uint32_t>(preds_.size()));
    const BasicBlock* b = rpo_[i];
    for (const Instruction* user : b->users()) {
      if (!user->isTerminator()) continue;
      bool targets_b = false;
      for (std::size_t s = 0; s < user->numSuccessors() && !targets_b; ++s)
        targets_b = user->successor(s) == b;
      if (!targets_b) continue;
      const std::uint32_t p = indexOf(user->parent());
      if (p == kNone) continue;  // Unreachable predecessor.
      if (std::find(preds_.begin() + pred_begin_[i], preds_.end(), p) ==
          preds_.end())
        preds_.push_back(p);
    }
  }
  pred_begin_.push_back(static_cast<std::uint32_t>(preds_.size()));

  // Cooper–Harvey–Kennedy "engineered" iterative algorithm on RPO indices:
  // a dominator always has a smaller index than the blocks it dominates.
  idom_.assign(n, kNone);
  idom_[0] = 0;
  const auto intersect = [&](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (a > b) a = idom_[a];
      while (b > a) b = idom_[b];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 1; i < n; ++i) {
      std::uint32_t new_idom = kNone;
      for (std::uint32_t k = pred_begin_[i]; k < pred_begin_[i + 1]; ++k) {
        const std::uint32_t p = preds_[k];
        if (idom_[p] == kNone) continue;  // Not processed yet.
        new_idom = new_idom == kNone ? p : intersect(p, new_idom);
      }
      POSETRL_CHECK(new_idom != kNone,
                    "reachable block without processed predecessor");
      if (idom_[i] != new_idom) {
        idom_[i] = new_idom;
        changed = true;
      }
    }
  }

  children_.resize(n);
  for (std::uint32_t i = 1; i < n; ++i) children_[idom_[i]].push_back(rpo_[i]);

  // Preorder interval numbering of the dominator tree, children visited in
  // RPO: a dominates b exactly when pre_[a] <= pre_[b] < end_[a]. RPO lists
  // every parent before its children, so subtree sizes fold bottom-up and
  // preorder slots hand out top-down, with no explicit DFS.
  end_.assign(n, 1);  // Subtree sizes first.
  for (std::uint32_t i = n - 1; i > 0; --i) end_[idom_[i]] += end_[i];
  pre_.assign(n, 0);
  std::vector<std::uint32_t> next_slot(n);
  next_slot[0] = 1;
  for (std::uint32_t i = 1; i < n; ++i) {
    pre_[i] = next_slot[idom_[i]];
    next_slot[idom_[i]] += end_[i];
    next_slot[i] = pre_[i] + 1;
  }
  for (std::uint32_t i = 0; i < n; ++i) end_[i] += pre_[i];
}

void DominatorTree::computeFrontiers() const {
  // Cooper–Harvey–Kennedy: walk from each predecessor of a join block up
  // to the join's immediate dominator. The entry has no immediate
  // dominator, so a walk towards it (only on a malformed CFG with edges
  // into the entry) runs through the root.
  const auto n = static_cast<std::uint32_t>(rpo_.size());
  frontier_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (pred_begin_[i + 1] - pred_begin_[i] < 2) continue;
    const std::uint32_t stop = i == 0 ? kNone : idom_[i];
    for (std::uint32_t k = pred_begin_[i]; k < pred_begin_[i + 1]; ++k) {
      for (std::uint32_t runner = preds_[k]; runner != stop;
           runner = runner == 0 ? kNone : idom_[runner])
        frontier_[runner].insert(rpo_[i]);
    }
  }
  frontiers_built_ = true;
}

BasicBlock* DominatorTree::idom(BasicBlock* b) const {
  const std::uint32_t i = indexOf(b);
  return i == kNone || i == 0 ? nullptr : rpo_[idom_[i]];
}

bool DominatorTree::dominates(BasicBlock* a, BasicBlock* b) const {
  if (a == b) return true;
  const std::uint32_t ia = indexOf(a);
  const std::uint32_t ib = indexOf(b);
  if (ia == kNone || ib == kNone) return false;
  return pre_[ia] <= pre_[ib] && pre_[ib] < end_[ia];
}

bool DominatorTree::dominatesUse(const Instruction* def,
                                 const Instruction* user) const {
  auto* def_bb = def->parent();
  auto* use_bb = user->parent();
  if (user->opcode() == Opcode::Phi) {
    const auto* phi = static_cast<const PhiInst*>(user);
    // The def must dominate every incoming edge that carries it.
    for (std::size_t i = 0; i < phi->numIncoming(); ++i) {
      if (phi->incomingValue(i) != def) continue;
      if (!dominates(def_bb, phi->incomingBlock(i))) return false;
    }
    return true;
  }
  if (def_bb == use_bb) {
    for (const auto& inst : def_bb->insts()) {
      if (inst.get() == def) return true;
      if (inst.get() == user) return false;
    }
    POSETRL_UNREACHABLE("instructions not found in their block");
  }
  return dominates(def_bb, use_bb);
}

const std::vector<BasicBlock*>& DominatorTree::children(BasicBlock* b) const {
  const std::uint32_t i = indexOf(b);
  return i == kNone ? kEmptyChildren : children_[i];
}

const std::set<BasicBlock*>& DominatorTree::frontier(BasicBlock* b) const {
  const std::uint32_t i = indexOf(b);
  if (i == kNone) return kEmptyFrontier;
  if (!frontiers_built_) computeFrontiers();
  return frontier_[i];
}

}  // namespace posetrl
