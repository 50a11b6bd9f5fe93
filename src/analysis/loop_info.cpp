#include "analysis/loop_info.h"

#include <algorithm>

#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"

namespace posetrl {

unsigned Loop::depth() const {
  unsigned d = 1;
  for (const Loop* l = parent_; l != nullptr; l = l->parent_) ++d;
  return d;
}

std::vector<BasicBlock*> Loop::latches() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : header_->predecessors()) {
    if (contains(p)) out.push_back(p);
  }
  return out;
}

BasicBlock* Loop::singleLatch() const {
  const auto l = latches();
  return l.size() == 1 ? l[0] : nullptr;
}

std::vector<BasicBlock*> Loop::outsidePredecessors() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : header_->predecessors()) {
    if (!contains(p)) out.push_back(p);
  }
  return out;
}

BasicBlock* Loop::preheader() const {
  const auto outside = outsidePredecessors();
  if (outside.size() != 1) return nullptr;
  BasicBlock* cand = outside[0];
  // Must branch only to the header.
  const auto succs = cand->successors();
  if (succs.size() != 1 || succs[0] != header_) return nullptr;
  return cand;
}

std::vector<BasicBlock*> Loop::exitBlocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* b : blocks_) {
    for (BasicBlock* s : b->successors()) {
      if (!contains(s) &&
          std::find(out.begin(), out.end(), s) == out.end()) {
        out.push_back(s);
      }
    }
  }
  return out;
}

bool Loop::hasDedicatedExits() const {
  for (BasicBlock* e : exitBlocks()) {
    for (BasicBlock* p : e->predecessors()) {
      if (!contains(p)) return false;
    }
  }
  return true;
}

std::size_t Loop::instructionCount() const {
  std::size_t n = 0;
  for (BasicBlock* b : blocks_) n += b->size();
  return n;
}

LoopInfo::LoopInfo(Function& f, const DominatorTree& dt) {
  if (f.isDeclaration()) return;
  // Find back edges: tail -> header where header dominates tail.
  // Discover headers in RPO so outer loops are created before inner ones
  // when headers differ; same-header back edges merge into one loop.
  std::map<BasicBlock*, Loop*> header_loop;
  for (BasicBlock* tail : dt.rpo()) {
    for (BasicBlock* succ : tail->successors()) {
      if (!dt.dominates(succ, tail)) continue;
      BasicBlock* header = succ;
      Loop* loop = nullptr;
      auto it = header_loop.find(header);
      if (it != header_loop.end()) {
        loop = it->second;
      } else {
        loops_.push_back(std::make_unique<Loop>());
        loop = loops_.back().get();
        loop->header_ = header;
        loop->blocks_.insert(header);
        header_loop[header] = loop;
      }
      // Walk backwards from the tail collecting the loop body.
      std::vector<BasicBlock*> stack{tail};
      while (!stack.empty()) {
        BasicBlock* b = stack.back();
        stack.pop_back();
        if (!dt.isReachable(b)) continue;
        if (loop->blocks_.insert(b).second) {
          for (BasicBlock* p : b->predecessors()) stack.push_back(p);
        }
      }
    }
  }

  // Establish nesting: loop A is a child of the smallest loop strictly
  // containing A's header (other than A itself).
  for (auto& a : loops_) {
    Loop* best = nullptr;
    for (auto& b : loops_) {
      if (a.get() == b.get()) continue;
      if (!b->contains(a->header_)) continue;
      if (best == nullptr || best->blocks_.size() > b->blocks_.size()) {
        best = b.get();
      }
    }
    a->parent_ = best;
    if (best != nullptr) best->sub_loops_.push_back(a.get());
  }

  // Innermost loop per block: smallest containing loop.
  for (auto& l : loops_) {
    for (BasicBlock* b : l->blocks_) {
      auto it = innermost_.find(b);
      if (it == innermost_.end() ||
          it->second->blocks_.size() > l->blocks_.size()) {
        innermost_[b] = l.get();
      }
    }
  }
}

Loop* LoopInfo::loopFor(BasicBlock* b) const {
  auto it = innermost_.find(b);
  return it == innermost_.end() ? nullptr : it->second;
}

unsigned LoopInfo::loopDepth(BasicBlock* b) const {
  Loop* l = loopFor(b);
  return l == nullptr ? 0 : l->depth();
}

std::vector<Loop*> LoopInfo::loopsInnermostFirst() const {
  std::vector<Loop*> out;
  for (const auto& l : loops_) out.push_back(l.get());
  std::sort(out.begin(), out.end(), [](const Loop* a, const Loop* b) {
    return a->depth() > b->depth();
  });
  return out;
}

}  // namespace posetrl
