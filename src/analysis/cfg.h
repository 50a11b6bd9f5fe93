#pragma once

/// \file cfg.h
/// CFG traversal helpers shared by analyses and passes.

#include <set>
#include <vector>

namespace posetrl {

class BasicBlock;
class Function;

/// Blocks reachable from the entry, in depth-first discovery order.
std::vector<BasicBlock*> reachableBlocks(Function& f);

/// Reverse post-order over reachable blocks (defs-before-uses friendly).
/// Like postOrder, re-stamps the Value scratch slot of every block it visits.
std::vector<BasicBlock*> reversePostOrder(Function& f);

/// Post-order over reachable blocks, visiting successors in terminator
/// order. The visited set lives in the Value scratch slot
/// (Value::nextStampGeneration), so a caller in the middle of its own
/// stamping walk must re-number after calling this.
std::vector<BasicBlock*> postOrder(Function& f);

}  // namespace posetrl
