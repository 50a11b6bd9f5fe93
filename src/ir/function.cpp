#include "ir/function.h"

#include <algorithm>
#include <optional>

#include "ir/module.h"

namespace posetrl {

Function::Function(Type* func_type, std::string name, Module* parent)
    : Value(Kind::Function, func_type, std::move(name)), parent_(parent) {
  POSETRL_CHECK(func_type->isFunction(), "Function needs a function type");
  const auto& params = func_type->funcParams();
  args_.reserve(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    args_.push_back(std::make_unique<Argument>(
        params[i], "arg" + std::to_string(i), this,
        static_cast<unsigned>(i)));
  }
}

void Function::removeArg(std::size_t i) {
  POSETRL_CHECK(i < args_.size(), "argument index out of range");
  POSETRL_CHECK(!args_[i]->hasUses(), "removing argument with uses");
  args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
  for (std::size_t j = i; j < args_.size(); ++j) {
    args_[j]->setIndex(static_cast<unsigned>(j));
    // Bodies hash an argument by its index; a use from another function's
    // body is malformed but still hashed.
    for (Instruction* user : args_[j]->users()) user->bumpFunctionGeneration();
  }
  // Rebuild the function type without the removed parameter.
  std::vector<Type*> params;
  params.reserve(args_.size());
  for (const auto& a : args_) params.push_back(a->type());
  setFunctionTypeUnchecked(
      parent_->types().funcType(returnType(), std::move(params)));
}

BasicBlock* Function::addBlock(const std::string& name) {
  POSETRL_CHECK(parent_ != nullptr, "function has no module");
  Type* label = parent_->types().voidTy();
  blocks_.push_back(
      std::make_unique<BasicBlock>(label, uniqueBlockName(name), this));
  bumpBodyGeneration();
  return blocks_.back().get();
}

BasicBlock* Function::addBlockAfter(BasicBlock* after,
                                    const std::string& name) {
  Type* label = parent_->types().voidTy();
  auto block =
      std::make_unique<BasicBlock>(label, uniqueBlockName(name), this);
  BasicBlock* raw = block.get();
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == after) {
      blocks_.insert(std::next(it), std::move(block));
      bumpBodyGeneration();
      return raw;
    }
  }
  POSETRL_UNREACHABLE("addBlockAfter: block not in function");
}

void Function::eraseBlock(BasicBlock* bb) {
  // Drop all operand references first so sibling user lists stay valid, then
  // require all results dead.
  for (auto& inst : bb->insts_) inst->dropAllOperands();
  for (auto& inst : bb->insts_) {
    POSETRL_CHECK(!inst->hasUses(),
                  "erasing block whose instruction still has uses");
  }
  POSETRL_CHECK(!bb->hasUses(), "erasing block that is still referenced");
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == bb) {
      blocks_.erase(it);
      bumpBodyGeneration();
      return;
    }
  }
  POSETRL_UNREACHABLE("eraseBlock: block not in function");
}

void Function::makeEntry(BasicBlock* bb) {
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == bb) {
      std::unique_ptr<BasicBlock> owned = std::move(*it);
      blocks_.erase(it);
      blocks_.push_front(std::move(owned));
      bumpBodyGeneration();
      return;
    }
  }
  POSETRL_UNREACHABLE("makeEntry: block not in function");
}

std::string Function::nextValueName() {
  return "t" + std::to_string(next_value_++);
}

std::string Function::uniqueBlockName(const std::string& base) {
  return base + "." + std::to_string(next_block_++);
}

namespace {

/// The number spelled by name[pos..], if that tail is all decimal digits.
/// Tails too long for a counter to ever reach are ignored.
std::optional<std::uint64_t> decimalTail(const std::string& name,
                                         std::size_t pos) {
  if (pos >= name.size() || name.size() - pos > 18) return std::nullopt;
  std::uint64_t n = 0;
  for (std::size_t i = pos; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    n = n * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return n;
}

}  // namespace

void Function::resetNameCounters() {
  next_value_ = 0;
  next_block_ = 0;
  const auto reserveValue = [this](const std::string& name) {
    if (name.empty() || name[0] != 't') return;
    if (const auto n = decimalTail(name, 1)) {
      next_value_ = std::max(next_value_, *n + 1);
    }
  };
  for (const auto& a : args_) reserveValue(a->name());
  for (const auto& bb : blocks_) {
    const std::size_t dot = bb->name().rfind('.');
    if (dot != std::string::npos) {
      if (const auto n = decimalTail(bb->name(), dot + 1)) {
        next_block_ = std::max(next_block_, *n + 1);
      }
    }
    for (const auto& inst : bb->insts()) reserveValue(inst->name());
  }
}

std::size_t Function::instructionCount() const {
  std::size_t n = 0;
  for (const auto& bb : blocks_) n += bb->size();
  return n;
}

}  // namespace posetrl
