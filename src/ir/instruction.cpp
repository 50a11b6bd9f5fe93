#include "ir/instruction.h"

#include <algorithm>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "support/arena.h"

namespace posetrl {

void* Instruction::operator new(std::size_t bytes) {
  return arenaAllocate(bytes);
}

void Instruction::operator delete(void* p) noexcept { arenaDeallocate(p); }

void Instruction::operator delete(void* p, std::size_t) noexcept {
  arenaDeallocate(p);
}

const char* opcodeName(Opcode op) {
  switch (op) {
    case Opcode::Alloca: return "alloca";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Gep: return "gep";
    case Opcode::Ret: return "ret";
    case Opcode::Br: return "br";
    case Opcode::CondBr: return "condbr";
    case Opcode::Switch: return "switch";
    case Opcode::Unreachable: return "unreachable";
    case Opcode::Phi: return "phi";
    case Opcode::Call: return "call";
    case Opcode::Select: return "select";
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::SDiv: return "sdiv";
    case Opcode::UDiv: return "udiv";
    case Opcode::SRem: return "srem";
    case Opcode::URem: return "urem";
    case Opcode::Shl: return "shl";
    case Opcode::LShr: return "lshr";
    case Opcode::AShr: return "ashr";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::FAdd: return "fadd";
    case Opcode::FSub: return "fsub";
    case Opcode::FMul: return "fmul";
    case Opcode::FDiv: return "fdiv";
    case Opcode::ICmp: return "icmp";
    case Opcode::FCmp: return "fcmp";
    case Opcode::ZExt: return "zext";
    case Opcode::SExt: return "sext";
    case Opcode::Trunc: return "trunc";
    case Opcode::SIToFP: return "sitofp";
    case Opcode::FPToSI: return "fptosi";
  }
  POSETRL_UNREACHABLE("bad opcode");
}

Instruction::Instruction(const InstAttrs& attrs, std::string name,
                         std::size_t num_operands)
    : Value(Kind::Instruction, attrs.type, std::move(name)),
      extra_type_(attrs.extra_type),
      pred_(attrs.pred),
      align_(attrs.align),
      opcode_(attrs.opcode),
      vector_width_(attrs.vector_width),
      operands_(num_operands, nullptr) {}

Instruction::Instruction(const InstAttrs& attrs, std::string name,
                         std::initializer_list<Value*> operands)
    : Instruction(attrs, std::move(name), operands.size()) {
  std::size_t i = 0;
  for (Value* v : operands) bindOperand(i++, v);
}

Instruction::~Instruction() = default;

std::unique_ptr<Instruction> Instruction::create(const InstAttrs& attrs,
                                                 std::string name,
                                                 std::size_t num_operands) {
  Instruction* inst = nullptr;
  const Opcode op = attrs.opcode;
  switch (op) {
    case Opcode::Alloca:
      inst = new AllocaInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Load:
      inst = new LoadInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Store:
      inst = new StoreInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Gep:
      inst = new GepInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Ret:
      inst = new RetInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Br:
      inst = new BrInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::CondBr:
      inst = new CondBrInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Switch:
      inst = new SwitchInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Unreachable:
      inst = new UnreachableInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Phi:
      inst = new PhiInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Call:
      inst = new CallInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::Select:
      inst = new SelectInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::ICmp:
      inst = new ICmpInst(attrs, std::move(name), num_operands);
      break;
    case Opcode::FCmp:
      inst = new FCmpInst(attrs, std::move(name), num_operands);
      break;
    default:
      if (op >= Opcode::Add && op <= Opcode::FDiv) {
        inst = new BinaryInst(attrs, std::move(name), num_operands);
      } else {
        inst = new CastInst(attrs, std::move(name), num_operands);
      }
      break;
  }
  return std::unique_ptr<Instruction>(inst);
}

void Instruction::bindOperand(std::size_t i, Value* v) {
  POSETRL_CHECK(i < operands_.size() && operands_[i] == nullptr,
                "binding an out-of-range or already bound operand slot");
  POSETRL_CHECK(v != nullptr, "null operand");
  operands_[i] = v;
  v->addUser(this);
  bumpFunctionGeneration();
}

Instruction* Instruction::clone() const {
  std::unique_ptr<Instruction> c = create(attrs(), name(), operands_.size());
  for (std::size_t i = 0; i < operands_.size(); ++i) {
    c->bindOperand(i, operands_[i]);
  }
  return c.release();
}

Function* Instruction::function() const {
  return parent_ ? parent_->parent() : nullptr;
}

void Instruction::bumpFunctionGeneration() const {
  if (Function* f = function()) f->bumpBodyGeneration();
}

void Instruction::setOperand(std::size_t i, Value* v) {
  POSETRL_CHECK(i < operands_.size(), "operand index out of range");
  POSETRL_CHECK(v != nullptr, "null operand");
  operands_[i]->removeUser(this);
  operands_[i] = v;
  v->addUser(this);
  bumpFunctionGeneration();
}

void Instruction::appendOperand(Value* v) {
  POSETRL_CHECK(v != nullptr, "null operand");
  operands_.push_back(v);
  v->addUser(this);
  bumpFunctionGeneration();
}

void Instruction::removeOperandAt(std::size_t i) {
  POSETRL_CHECK(i < operands_.size(), "operand index out of range");
  operands_[i]->removeUser(this);
  operands_.erase(operands_.begin() + static_cast<std::ptrdiff_t>(i));
  bumpFunctionGeneration();
}

void Instruction::dropAllOperands() {
  for (Value* v : operands_) {
    if (v != nullptr) v->removeUser(this);
  }
  operands_.clear();
  bumpFunctionGeneration();
}

std::unique_ptr<Instruction> Instruction::removeFromParent() {
  POSETRL_CHECK(parent_ != nullptr, "instruction has no parent");
  BasicBlock* bb = parent_;
  for (auto it = bb->insts_.begin(); it != bb->insts_.end(); ++it) {
    if (it->get() == this) {
      std::unique_ptr<Instruction> owned = std::move(*it);
      bb->insts_.erase(it);
      bumpFunctionGeneration();
      parent_ = nullptr;
      return owned;
    }
  }
  POSETRL_UNREACHABLE("instruction not found in its parent block");
}

void Instruction::eraseFromParent() {
  POSETRL_CHECK(!hasUses(), "erasing instruction that still has uses: ",
                name().empty() ? opcodeName(opcode_) : name());
  dropAllOperands();
  removeFromParent();  // unique_ptr released at end of statement
}

void Instruction::moveBefore(Instruction* pos) {
  POSETRL_CHECK(pos != nullptr && pos->parent() != nullptr, "bad position");
  std::unique_ptr<Instruction> owned = removeFromParent();
  pos->parent()->insertBefore(pos, std::move(owned));
}

void Instruction::moveBeforeTerminator(BasicBlock* block) {
  Instruction* term = block->terminator();
  if (term != nullptr) {
    moveBefore(term);
  } else {
    std::unique_ptr<Instruction> owned = removeFromParent();
    block->pushBack(std::move(owned));
  }
}

bool Instruction::isTerminator() const {
  switch (opcode_) {
    case Opcode::Ret:
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Switch:
    case Opcode::Unreachable:
      return true;
    default:
      return false;
  }
}

bool Instruction::isCommutative() const {
  switch (opcode_) {
    case Opcode::Add:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::FAdd:
    case Opcode::FMul:
      return true;
    default:
      return false;
  }
}

bool Instruction::mayTrap() const {
  switch (opcode_) {
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem: {
      // Safe only when dividing by a known non-zero constant.
      auto* c = dynCast<ConstantInt>(operand(1));
      return c == nullptr || c->isZero();
    }
    default:
      return false;
  }
}

bool Instruction::mayWriteMemory() const {
  switch (opcode_) {
    case Opcode::Store:
      return true;
    case Opcode::Call: {
      Function* callee = static_cast<const CallInst*>(this)->calledFunction();
      if (callee == nullptr) return true;  // Indirect: assume the worst.
      if (callee->hasAttr(FnAttr::ReadNone) ||
          callee->hasAttr(FnAttr::ReadOnly)) {
        return false;
      }
      if (callee->intrinsicId() == IntrinsicId::Assume ||
          callee->intrinsicId() == IntrinsicId::AssumeAligned) {
        return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool Instruction::mayReadMemory() const {
  switch (opcode_) {
    case Opcode::Load:
      return true;
    case Opcode::Call: {
      Function* callee = static_cast<const CallInst*>(this)->calledFunction();
      if (callee == nullptr) return true;
      if (callee->hasAttr(FnAttr::ReadNone)) return false;
      if (callee->intrinsicId() == IntrinsicId::Assume ||
          callee->intrinsicId() == IntrinsicId::AssumeAligned) {
        return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool Instruction::isRemovableIfUnused() const {
  if (isTerminator()) return false;
  if (mayTrap()) return false;
  switch (opcode_) {
    case Opcode::Store:
      return false;
    case Opcode::Call: {
      Function* callee = static_cast<const CallInst*>(this)->calledFunction();
      if (callee == nullptr) return false;
      // Optimizer hints can always be dropped.
      if (callee->intrinsicId() == IntrinsicId::Assume ||
          callee->intrinsicId() == IntrinsicId::AssumeAligned ||
          callee->intrinsicId() == IntrinsicId::Expect) {
        return true;
      }
      return callee->hasAttr(FnAttr::ReadNone) ||
             callee->hasAttr(FnAttr::ReadOnly);
    }
    default:
      return true;
  }
}

std::size_t Instruction::numSuccessors() const {
  switch (opcode_) {
    case Opcode::Br: return 1;
    case Opcode::CondBr: return 2;
    case Opcode::Switch: return 1 + (numOperands() - 2) / 2;
    default: return 0;
  }
}

BasicBlock* Instruction::successor(std::size_t i) const {
  POSETRL_CHECK(i < numSuccessors(), "successor index out of range");
  switch (opcode_) {
    case Opcode::Br:
      return cast<BasicBlock>(operand(0));
    case Opcode::CondBr:
      return cast<BasicBlock>(operand(1 + i));
    case Opcode::Switch:
      if (i == 0) return cast<BasicBlock>(operand(1));
      return cast<BasicBlock>(operand(1 + 2 * i));
    default:
      POSETRL_UNREACHABLE("successor on non-branch");
  }
}

void Instruction::setSuccessor(std::size_t i, BasicBlock* block) {
  POSETRL_CHECK(i < numSuccessors(), "successor index out of range");
  switch (opcode_) {
    case Opcode::Br:
      setOperand(0, block);
      return;
    case Opcode::CondBr:
      setOperand(1 + i, block);
      return;
    case Opcode::Switch:
      setOperand(i == 0 ? 1 : 1 + 2 * i, block);
      return;
    default:
      POSETRL_UNREACHABLE("setSuccessor on non-branch");
  }
}

GepInst::GepInst(Type* result_ptr, Type* source_elem, Value* base,
                 std::vector<Value*> indices, std::string name)
    : Instruction({.opcode = Opcode::Gep,
                   .type = result_ptr,
                   .extra_type = source_elem},
                  std::move(name), indices.size() + 1) {
  bindOperand(0, base);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    bindOperand(i + 1, indices[i]);
  }
}

BasicBlock* PhiInst::incomingBlock(std::size_t i) const {
  return cast<BasicBlock>(operand(2 * i + 1));
}

void PhiInst::addIncoming(Value* value, BasicBlock* block) {
  appendOperand(value);
  appendOperand(block);
}

void PhiInst::removeIncoming(BasicBlock* block) {
  const std::size_t i = indexOfBlock(block);
  POSETRL_CHECK(i != static_cast<std::size_t>(-1),
                "phi has no incoming edge from block");
  removeOperandAt(2 * i + 1);
  removeOperandAt(2 * i);
}

Value* PhiInst::incomingForBlock(BasicBlock* block) const {
  const std::size_t i = indexOfBlock(block);
  POSETRL_CHECK(i != static_cast<std::size_t>(-1),
                "phi has no incoming edge from block");
  return incomingValue(i);
}

std::size_t PhiInst::indexOfBlock(BasicBlock* block) const {
  for (std::size_t i = 0; i < numIncoming(); ++i) {
    if (incomingBlock(i) == block) return i;
  }
  return static_cast<std::size_t>(-1);
}

Value* PhiInst::uniformValue() const {
  Value* uniform = nullptr;
  for (std::size_t i = 0; i < numIncoming(); ++i) {
    Value* v = incomingValue(i);
    if (v == this) continue;
    if (uniform == nullptr) {
      uniform = v;
    } else if (uniform != v) {
      return nullptr;
    }
  }
  return uniform;
}

CallInst::CallInst(Type* result, Value* callee, std::vector<Value*> args,
                   std::string name)
    : Instruction({.opcode = Opcode::Call, .type = result}, std::move(name),
                  args.size() + 1) {
  bindOperand(0, callee);
  for (std::size_t i = 0; i < args.size(); ++i) bindOperand(i + 1, args[i]);
}

Function* CallInst::calledFunction() const {
  return dynCast<Function>(callee());
}

RetInst::RetInst(Type* void_type, Value* value)
    : Instruction({.opcode = Opcode::Ret, .type = void_type}, "",
                  value != nullptr ? 1 : 0) {
  if (value != nullptr) bindOperand(0, value);
}

BrInst::BrInst(Type* void_type, BasicBlock* target)
    : Instruction({.opcode = Opcode::Br, .type = void_type}, "", {target}) {}

CondBrInst::CondBrInst(Type* void_type, Value* cond, BasicBlock* then_block,
                       BasicBlock* else_block)
    : Instruction({.opcode = Opcode::CondBr, .type = void_type}, "",
                  {cond, then_block, else_block}) {}

SwitchInst::SwitchInst(Type* void_type, Value* cond, BasicBlock* default_block)
    : Instruction({.opcode = Opcode::Switch, .type = void_type}, "",
                  {cond, default_block}) {}

BasicBlock* SwitchInst::defaultBlock() const {
  return cast<BasicBlock>(operand(1));
}

ConstantInt* SwitchInst::caseValue(std::size_t i) const {
  POSETRL_CHECK(i < numCases(), "case index out of range");
  return cast<ConstantInt>(operand(2 + 2 * i));
}

BasicBlock* SwitchInst::caseBlock(std::size_t i) const {
  POSETRL_CHECK(i < numCases(), "case index out of range");
  return cast<BasicBlock>(operand(3 + 2 * i));
}

void SwitchInst::addCase(ConstantInt* value, BasicBlock* block) {
  appendOperand(value);
  appendOperand(block);
}

void SwitchInst::removeCase(std::size_t i) {
  POSETRL_CHECK(i < numCases(), "case index out of range");
  removeOperandAt(3 + 2 * i);
  removeOperandAt(2 + 2 * i);
}

ICmpInst::Pred ICmpInst::swapped(Pred p) {
  switch (p) {
    case Pred::EQ: return Pred::EQ;
    case Pred::NE: return Pred::NE;
    case Pred::SLT: return Pred::SGT;
    case Pred::SLE: return Pred::SGE;
    case Pred::SGT: return Pred::SLT;
    case Pred::SGE: return Pred::SLE;
    case Pred::ULT: return Pred::UGT;
    case Pred::ULE: return Pred::UGE;
    case Pred::UGT: return Pred::ULT;
    case Pred::UGE: return Pred::ULE;
  }
  POSETRL_UNREACHABLE("bad icmp predicate");
}

ICmpInst::Pred ICmpInst::inverse(Pred p) {
  switch (p) {
    case Pred::EQ: return Pred::NE;
    case Pred::NE: return Pred::EQ;
    case Pred::SLT: return Pred::SGE;
    case Pred::SLE: return Pred::SGT;
    case Pred::SGT: return Pred::SLE;
    case Pred::SGE: return Pred::SLT;
    case Pred::ULT: return Pred::UGE;
    case Pred::ULE: return Pred::UGT;
    case Pred::UGT: return Pred::ULE;
    case Pred::UGE: return Pred::ULT;
  }
  POSETRL_UNREACHABLE("bad icmp predicate");
}

const char* ICmpInst::predName(Pred p) {
  switch (p) {
    case Pred::EQ: return "eq";
    case Pred::NE: return "ne";
    case Pred::SLT: return "slt";
    case Pred::SLE: return "sle";
    case Pred::SGT: return "sgt";
    case Pred::SGE: return "sge";
    case Pred::ULT: return "ult";
    case Pred::ULE: return "ule";
    case Pred::UGT: return "ugt";
    case Pred::UGE: return "uge";
  }
  POSETRL_UNREACHABLE("bad icmp predicate");
}

bool ICmpInst::evaluate(Pred p, std::int64_t lhs, std::int64_t rhs,
                        unsigned bits) {
  const std::uint64_t mask =
      bits == 64 ? ~0ull : ((1ull << bits) - 1);
  const std::uint64_t ul = static_cast<std::uint64_t>(lhs) & mask;
  const std::uint64_t ur = static_cast<std::uint64_t>(rhs) & mask;
  switch (p) {
    case Pred::EQ: return lhs == rhs;
    case Pred::NE: return lhs != rhs;
    case Pred::SLT: return lhs < rhs;
    case Pred::SLE: return lhs <= rhs;
    case Pred::SGT: return lhs > rhs;
    case Pred::SGE: return lhs >= rhs;
    case Pred::ULT: return ul < ur;
    case Pred::ULE: return ul <= ur;
    case Pred::UGT: return ul > ur;
    case Pred::UGE: return ul >= ur;
  }
  POSETRL_UNREACHABLE("bad icmp predicate");
}

const char* FCmpInst::predName(Pred p) {
  switch (p) {
    case Pred::OEQ: return "oeq";
    case Pred::ONE: return "one";
    case Pred::OLT: return "olt";
    case Pred::OLE: return "ole";
    case Pred::OGT: return "ogt";
    case Pred::OGE: return "oge";
  }
  POSETRL_UNREACHABLE("bad fcmp predicate");
}

bool FCmpInst::evaluate(Pred p, double lhs, double rhs) {
  switch (p) {
    case Pred::OEQ: return lhs == rhs;
    case Pred::ONE: return lhs != rhs;
    case Pred::OLT: return lhs < rhs;
    case Pred::OLE: return lhs <= rhs;
    case Pred::OGT: return lhs > rhs;
    case Pred::OGE: return lhs >= rhs;
  }
  POSETRL_UNREACHABLE("bad fcmp predicate");
}

}  // namespace posetrl
