#include "ir/value.h"

#include <algorithm>
#include <atomic>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"

namespace posetrl {

namespace {

// Each thread draws generations from its own 2^40-wide range, so a stamp
// left by one thread can never read as valid to another thread's walk over
// the same module (modules move between serve threads over their lifetime).
std::atomic<std::uint64_t> g_stamp_thread_ranges{0};
thread_local std::uint64_t g_stamp_generation =
    (g_stamp_thread_ranges.fetch_add(1, std::memory_order_relaxed) + 1) << 40;

/// Bumps the body generation of the function that owns \p v: an argument's
/// or block's parent, a placed instruction's function. Module-level values
/// and detached instructions have no owner.
void bumpOwner(const Value* v) {
  switch (v->kind()) {
    case Value::Kind::Argument:
      static_cast<const Argument*>(v)->parent()->bumpBodyGeneration();
      return;
    case Value::Kind::BasicBlock:
      static_cast<const BasicBlock*>(v)->parent()->bumpBodyGeneration();
      return;
    case Value::Kind::Instruction:
      static_cast<const Instruction*>(v)->bumpFunctionGeneration();
      return;
    default:
      return;
  }
}

}  // namespace

std::uint64_t Value::nextStampGeneration() { return ++g_stamp_generation; }

void Value::replaceAllUsesWith(Value* replacement) {
  POSETRL_CHECK(replacement != this, "RAUW with self");
  // Users are mutated as operands change, so iterate over a snapshot.
  const std::vector<Instruction*> snapshot = users_;
  for (Instruction* user : snapshot) {
    for (std::size_t i = 0; i < user->numOperands(); ++i) {
      if (user->operand(i) == this) user->setOperand(i, replacement);
    }
  }
}

void Value::setName(std::string name) {
  if (kind_ == Kind::Function || kind_ == Kind::GlobalVariable) {
    // Bodies hash the names of the symbols they reference.
    for (Instruction* user : users_) user->bumpFunctionGeneration();
  } else if (name.empty() != name_.empty()) {
    bumpOwner(this);  // name presence is part of the fast verifier's key
  }
  name_ = std::move(name);
}

void Value::addUser(Instruction* user) {
  users_.push_back(user);
  bumpOwner(this);
}

void Value::removeUser(Instruction* user) {
  auto it = std::find(users_.begin(), users_.end(), user);
  POSETRL_CHECK(it != users_.end(), "removing non-existent user");
  users_.erase(it);
  bumpOwner(this);
}

std::uint64_t ConstantInt::zextValue() const {
  const unsigned bits = type()->intBits();
  if (bits == 64) return static_cast<std::uint64_t>(value_);
  return static_cast<std::uint64_t>(value_) & ((1ull << bits) - 1);
}

std::int64_t ConstantInt::canonicalize(std::int64_t v, unsigned bits) {
  if (bits == 64) return v;
  const std::uint64_t mask = (1ull << bits) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
  // Sign-extend from `bits`.
  const std::uint64_t sign = 1ull << (bits - 1);
  if (u & sign) u |= ~mask;
  return static_cast<std::int64_t>(u);
}

}  // namespace posetrl
