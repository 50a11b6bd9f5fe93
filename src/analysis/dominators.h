#pragma once

/// \file dominators.h
/// Dominator tree (Cooper–Harvey–Kennedy algorithm) and dominance frontiers.
/// Used by mem2reg (phi placement), LICM, GVN/early-CSE scoping, and the
/// loop analyses.
///
/// Layout: reachable blocks are numbered densely in reverse post-order, and
/// every per-block datum (immediate dominator, children, predecessors,
/// dominator-tree DFS interval) lives in a vector at that index. One small
/// open-addressing table maps a block to its index, so every query is a
/// probe plus vector loads; dominates() checks whether one block's preorder
/// number falls inside the other's subtree interval and is O(1).

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace posetrl {

class BasicBlock;
class Function;
class Instruction;
class Value;

/// Immutable dominator tree over the reachable blocks of one function.
class DominatorTree {
 public:
  explicit DominatorTree(Function& f);

  /// Immediate dominator; nullptr for the entry block and for blocks not
  /// reachable from entry.
  BasicBlock* idom(BasicBlock* b) const;

  /// True when \p a dominates \p b (reflexive).
  bool dominates(BasicBlock* a, BasicBlock* b) const;

  /// True when instruction \p def dominates the use site \p user. Phi uses
  /// are checked against the incoming edge's predecessor terminator.
  bool dominatesUse(const Instruction* def, const Instruction* user) const;

  /// Children in the dominator tree, in reverse post-order.
  const std::vector<BasicBlock*>& children(BasicBlock* b) const;

  /// Dominance frontier of \p b. All frontiers are computed on the first
  /// call (most trees are never asked), from the predecessor lists recorded
  /// at construction, so the answer describes the CFG the tree was built on.
  /// A std::set, ordered by address: mem2reg iterates it to place and name
  /// phis.
  const std::set<BasicBlock*>& frontier(BasicBlock* b) const;

  /// Blocks in reverse post-order (entry first).
  const std::vector<BasicBlock*>& rpo() const { return rpo_; }

  bool isReachable(BasicBlock* b) const { return indexOf(b) != kNone; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// RPO index of \p b, or kNone when \p b is not reachable.
  std::uint32_t indexOf(const BasicBlock* b) const;
  std::size_t slotFor(const BasicBlock* b) const;
  void computeFrontiers() const;

  std::vector<BasicBlock*> rpo_;
  /// Open-addressing block -> RPO index table (nullptr key = empty slot).
  std::vector<std::pair<const BasicBlock*, std::uint32_t>> slots_;
  unsigned slot_shift_ = 64;
  /// Immediate dominator per RPO index; the entry's is itself.
  std::vector<std::uint32_t> idom_;
  /// Unique reachable predecessors of block i:
  /// preds_[pred_begin_[i] .. pred_begin_[i + 1]).
  std::vector<std::uint32_t> pred_begin_;
  std::vector<std::uint32_t> preds_;
  std::vector<std::vector<BasicBlock*>> children_;
  /// Preorder number of each block in the dominator tree, and one past the
  /// last preorder number of its subtree.
  std::vector<std::uint32_t> pre_;
  std::vector<std::uint32_t> end_;
  mutable std::vector<std::set<BasicBlock*>> frontier_;
  mutable bool frontiers_built_ = false;
  static const std::vector<BasicBlock*> kEmptyChildren;
  static const std::set<BasicBlock*> kEmptyFrontier;
};

}  // namespace posetrl
