#include "analysis/cfg.h"

#include <algorithm>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"

namespace posetrl {

std::vector<BasicBlock*> reachableBlocks(Function& f) {
  std::vector<BasicBlock*> order;
  if (f.isDeclaration()) return order;
  std::set<BasicBlock*> seen;
  std::vector<BasicBlock*> stack{f.entry()};
  seen.insert(f.entry());
  while (!stack.empty()) {
    BasicBlock* bb = stack.back();
    stack.pop_back();
    order.push_back(bb);
    for (BasicBlock* s : bb->successors()) {
      if (seen.insert(s).second) stack.push_back(s);
    }
  }
  return order;
}

std::vector<BasicBlock*> postOrder(Function& f) {
  std::vector<BasicBlock*> order;
  if (f.isDeclaration()) return order;
  // Iterative post-order DFS. The visited set is a stamp in the shared
  // Value scratch slot, and a frame is a block plus its next successor
  // index, so the walk allocates nothing per block.
  const std::uint64_t gen = Value::nextStampGeneration();
  struct Frame {
    BasicBlock* block;
    std::size_t next;
  };
  std::vector<Frame> stack{{f.entry(), 0}};
  f.entry()->stampFingerprintId(gen, 0);
  while (!stack.empty()) {
    Frame& top = stack.back();
    const Instruction* term = top.block->terminator();
    if (term != nullptr && top.next < term->numSuccessors()) {
      BasicBlock* s = term->successor(top.next++);
      if (!s->fingerprintIdValid(gen)) {
        s->stampFingerprintId(gen, 0);
        stack.push_back({s, 0});
      }
    } else {
      order.push_back(top.block);
      stack.pop_back();
    }
  }
  return order;
}

std::vector<BasicBlock*> reversePostOrder(Function& f) {
  std::vector<BasicBlock*> order = postOrder(f);
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace posetrl
