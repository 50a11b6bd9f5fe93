#pragma once

/// \file basic_block.h
/// Basic blocks: ordered instruction lists ending in exactly one terminator.
/// Blocks are Values (their label can be a branch/phi operand).

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"
#include "ir/value.h"

namespace posetrl {

class Function;

/// A basic block. Owns its instructions; instruction order is significant.
class BasicBlock : public Value {
 public:
  using InstList = std::list<std::unique_ptr<Instruction>>;
  using iterator = InstList::iterator;

  BasicBlock(Type* label_type, std::string name, Function* parent)
      : Value(Kind::BasicBlock, label_type, std::move(name)),
        parent_(parent) {}

  /// Arena-backed like Instruction (see instruction.h): blocks churn under
  /// simplifycfg/loop passes, so they share the module's bump arena.
  static void* operator new(std::size_t bytes);
  static void operator delete(void* p) noexcept;
  static void operator delete(void* p, std::size_t) noexcept;

  Function* parent() const { return parent_; }

  const InstList& insts() const { return insts_; }
  iterator begin() { return insts_.begin(); }
  iterator end() { return insts_.end(); }
  bool empty() const { return insts_.empty(); }
  std::size_t size() const { return insts_.size(); }
  Instruction* front() const { return insts_.front().get(); }
  Instruction* back() const { return insts_.back().get(); }

  /// Appends \p inst (taking ownership); returns the raw pointer.
  Instruction* pushBack(std::unique_ptr<Instruction> inst);
  /// Inserts \p inst before \p pos (which must be in this block).
  Instruction* insertBefore(Instruction* pos,
                            std::unique_ptr<Instruction> inst);
  /// Inserts at the front of the block (used for phi placement).
  Instruction* pushFront(std::unique_ptr<Instruction> inst);

  /// The terminator, or nullptr if the block is unterminated (only legal
  /// transiently during construction/transformation).
  Instruction* terminator() const;

  /// Successor blocks (possibly with duplicates, mirroring terminator edges).
  std::vector<BasicBlock*> successors() const;
  /// Unique predecessor blocks, in discovery order over this block's users.
  std::vector<BasicBlock*> predecessors() const;
  /// The single predecessor, or nullptr if zero or many.
  BasicBlock* singlePredecessor() const;
  /// The single successor, or nullptr if zero or many.
  BasicBlock* singleSuccessor() const;
  bool hasPredecessor(BasicBlock* bb) const;

  /// First non-phi instruction position.
  iterator firstNonPhi();
  /// All phi nodes at the head of the block.
  std::vector<PhiInst*> phis() const;

  /// Removes this block's incoming entries from all successor phis.
  void removeFromSuccessorPhis();

  /// Moves instructions [pos, end) into a fresh block appended to the parent
  /// function, and returns it; no branch is created (caller's job).
  BasicBlock* splitAt(Instruction* pos, const std::string& new_name);

  /// Unlinks and destroys this (must be use-free and unlinked from CFG).
  void eraseFromParent();

  static bool classof(const Value* v) { return v->kind() == Kind::BasicBlock; }

 private:
  friend class Instruction;
  friend class Function;

  Function* parent_;
  InstList insts_;
};

}  // namespace posetrl
