#pragma once

/// \file loop_info.h
/// Natural-loop detection from back edges in the dominator tree. Provides
/// the loop structure queried by every loop pass (loop-simplify, licm,
/// loop-rotate, unroll, deletion, idiom, vectorize, ...).

#include <map>
#include <memory>
#include <set>
#include <vector>

namespace posetrl {

class BasicBlock;
class Function;
class DominatorTree;
class Value;
class PhiInst;

/// One natural loop: a header plus the blocks of all back edges into it.
class Loop {
 public:
  BasicBlock* header() const { return header_; }
  const std::set<BasicBlock*>& blocks() const { return blocks_; }
  bool contains(BasicBlock* b) const { return blocks_.count(b) > 0; }

  Loop* parent() const { return parent_; }
  const std::vector<Loop*>& subLoops() const { return sub_loops_; }
  /// 1 for outermost loops, +1 per nesting level.
  unsigned depth() const;

  /// Blocks inside the loop that branch back to the header.
  std::vector<BasicBlock*> latches() const;
  /// The unique latch, or nullptr.
  BasicBlock* singleLatch() const;
  /// The unique out-of-loop predecessor of the header whose only successor
  /// is the header (canonical preheader), or nullptr.
  BasicBlock* preheader() const;
  /// All out-of-loop predecessor blocks of the header.
  std::vector<BasicBlock*> outsidePredecessors() const;
  /// Out-of-loop successor blocks of in-loop blocks.
  std::vector<BasicBlock*> exitBlocks() const;
  /// True when every exit block's predecessors are all inside the loop
  /// ("dedicated exits", guaranteed by loop-simplify).
  bool hasDedicatedExits() const;

  /// Total instruction count of the loop body.
  std::size_t instructionCount() const;

 private:
  friend class LoopInfo;

  BasicBlock* header_ = nullptr;
  std::set<BasicBlock*> blocks_;
  Loop* parent_ = nullptr;
  std::vector<Loop*> sub_loops_;
};

/// All natural loops of a function.
class LoopInfo {
 public:
  LoopInfo(Function& f, const DominatorTree& dt);

  /// Innermost loop containing \p b, or nullptr.
  Loop* loopFor(BasicBlock* b) const;
  unsigned loopDepth(BasicBlock* b) const;

  /// Every loop, innermost-first (so transforms can work inside-out).
  std::vector<Loop*> loopsInnermostFirst() const;
  std::size_t loopCount() const { return loops_.size(); }

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
  std::map<BasicBlock*, Loop*> innermost_;
};

}  // namespace posetrl
