#pragma once

/// \file instruction.h
/// MiniIR instruction hierarchy. Instructions are Values (their result is the
/// SSA value) and hold their operand list; operand edits keep the global
/// use-def bookkeeping consistent automatically. Every operand, attribute
/// and placement edit bumps the owning function's body generation
/// (Function::bodyGeneration).

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "ir/value.h"

namespace posetrl {

class BasicBlock;
class Function;

/// Instruction opcode. The set mirrors the LLVM-10 instructions exercised by
/// the Oz pipeline (memory, control flow, integer/FP arithmetic, casts).
enum class Opcode {
  // Memory.
  Alloca,
  Load,
  Store,
  Gep,
  // Control flow (terminators).
  Ret,
  Br,
  CondBr,
  Switch,
  Unreachable,
  // Other.
  Phi,
  Call,
  Select,
  // Integer binary ops.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  Shl,
  LShr,
  AShr,
  And,
  Or,
  Xor,
  // Floating-point binary ops.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Comparisons.
  ICmp,
  FCmp,
  // Casts.
  ZExt,
  SExt,
  Trunc,
  SIToFP,
  FPToSI,
};

/// Spelling used by the printer/parser, e.g. "add", "condbr".
const char* opcodeName(Opcode op);

/// Every non-operand field an instruction carries, in one plain record.
/// The copy paths (Instruction::clone, cloneModule, ModuleSnapshot) read it
/// with Instruction::attrs() and rebuild through Instruction::create(); the
/// content hashes hash it through hashInstAttrs (ir/structural_hash.h).
/// Fields an opcode does not use keep their defaults.
struct InstAttrs {
  Opcode opcode = Opcode::Unreachable;
  int pred = 0;                ///< ICmp/FCmp predicate, as int.
  unsigned align = 1;          ///< Load/Store alignment.
  unsigned vector_width = 1;   ///< Modeled vectorization factor (1 = scalar).
  Type* type = nullptr;        ///< Result type (void when there is none).
  Type* extra_type = nullptr;  ///< Alloca: allocated type; Gep: source element.

  bool operator==(const InstAttrs&) const = default;
};

/// Base instruction class.
class Instruction : public Value {
 public:
  /// Never touches the operands, so it is safe on a half-built instruction
  /// and in any teardown order.
  ~Instruction() override;

  /// Instructions are the highest-churn IR objects (every pass creates and
  /// erases them), so they draw storage from the active ArenaScope's bump
  /// arena (support/arena.h) — the module's own arena on all hot paths —
  /// with transparent heap fallback when no scope is installed. Ownership
  /// is unchanged: unique_ptr in the block's InstList still controls
  /// lifetime; only the memory source differs.
  static void* operator new(std::size_t bytes);
  static void operator delete(void* p) noexcept;
  static void operator delete(void* p, std::size_t) noexcept;

  /// The one factory behind every copy path: builds the subclass
  /// \p attrs.opcode selects, with \p num_operands unbound (null) operand
  /// slots. Until bindOperand fills a slot, the instruction references no
  /// value and sits in no user list, so building a copy never writes to the
  /// module it copies from.
  static std::unique_ptr<Instruction> create(const InstAttrs& attrs,
                                             std::string name,
                                             std::size_t num_operands);
  /// Fills unbound slot \p i with \p v and registers the use. Each slot is
  /// bound exactly once; later edits go through setOperand.
  void bindOperand(std::size_t i, Value* v);

  InstAttrs attrs() const {
    return {opcode_, pred_, align_, vector_width_, type(), extra_type_};
  }

  Opcode opcode() const { return opcode_; }
  BasicBlock* parent() const { return parent_; }
  Function* function() const;
  /// Bumps function()'s body generation; no-op while detached.
  void bumpFunctionGeneration() const;

  std::size_t numOperands() const { return operands_.size(); }
  Value* operand(std::size_t i) const {
    POSETRL_CHECK(i < operands_.size(), "operand index out of range");
    return operands_[i];
  }
  void setOperand(std::size_t i, Value* v);
  const std::vector<Value*>& operands() const { return operands_; }

  /// Detaches all bound operands (removing this from their user lists).
  void dropAllOperands();

  /// Unlinks from the parent block and destroys the instruction. The result
  /// must have no remaining uses.
  void eraseFromParent();

  /// Unlinks from the parent block without destroying (caller takes
  /// ownership); used when moving instructions between blocks.
  std::unique_ptr<Instruction> removeFromParent();

  /// Moves this instruction before \p pos (same or different block).
  void moveBefore(Instruction* pos);
  /// Moves this instruction to the end of \p block, before its terminator if
  /// one exists.
  void moveBeforeTerminator(BasicBlock* block);

  bool isTerminator() const;
  bool isBinaryOp() const {
    return opcode_ >= Opcode::Add && opcode_ <= Opcode::FDiv;
  }
  bool isIntBinaryOp() const {
    return opcode_ >= Opcode::Add && opcode_ <= Opcode::Xor;
  }
  bool isFloatBinaryOp() const {
    return opcode_ >= Opcode::FAdd && opcode_ <= Opcode::FDiv;
  }
  bool isCast() const { return opcode_ >= Opcode::ZExt; }
  bool isCommutative() const;
  /// Division/remainder by a non-constant or zero can trap.
  bool mayTrap() const;

  /// Writes memory or has other observable effects (stores, most calls,
  /// returns/branches excluded).
  bool mayWriteMemory() const;
  bool mayReadMemory() const;
  /// True if the instruction can be removed when its result is unused.
  bool isRemovableIfUnused() const;

  /// Terminator successor access (checked).
  std::size_t numSuccessors() const;
  BasicBlock* successor(std::size_t i) const;
  void setSuccessor(std::size_t i, BasicBlock* block);

  /// Structural clone with identical operands and attrs(); the clone is
  /// unparented.
  Instruction* clone() const;

  /// Modeled vectorization factor (1 = scalar). Set by the loop-vectorize
  /// analog; consumed by the size and throughput models.
  unsigned vectorWidth() const { return vector_width_; }
  void setVectorWidth(unsigned w) {
    vector_width_ = w;
    bumpFunctionGeneration();
  }

  static bool classof(const Value* v) {
    return v->kind() == Kind::Instruction;
  }

 protected:
  /// Unbound slots (see create()); subclasses inherit this constructor.
  Instruction(const InstAttrs& attrs, std::string name,
              std::size_t num_operands);
  /// Binds \p operands in order.
  Instruction(const InstAttrs& attrs, std::string name,
              std::initializer_list<Value*> operands);

  void appendOperand(Value* v);
  void removeOperandAt(std::size_t i);

  // The opcode-specific attributes; subclass accessors give them names.
  Type* extra_type_;
  int pred_;
  unsigned align_;

 private:
  friend class BasicBlock;

  Opcode opcode_;
  unsigned vector_width_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;
};

/// Stack allocation of `allocatedType()`, yielding ptr<allocatedType>.
class AllocaInst : public Instruction {
 public:
  using Instruction::Instruction;
  AllocaInst(Type* result_ptr_type, Type* allocated, std::string name)
      : Instruction({.opcode = Opcode::Alloca,
                     .type = result_ptr_type,
                     .extra_type = allocated},
                    std::move(name), 0) {}

  Type* allocatedType() const { return extra_type_; }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Alloca;
  }
};

/// Load from operand(0) (a pointer).
class LoadInst : public Instruction {
 public:
  using Instruction::Instruction;
  LoadInst(Type* loaded, Value* ptr, std::string name)
      : Instruction({.opcode = Opcode::Load, .type = loaded}, std::move(name),
                    {ptr}) {}

  Value* pointer() const { return operand(0); }
  unsigned alignment() const { return align_; }
  void setAlignment(unsigned a) { align_ = a; bumpFunctionGeneration(); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Load;
  }
};

/// Store operand(0) to pointer operand(1).
class StoreInst : public Instruction {
 public:
  using Instruction::Instruction;
  StoreInst(Type* void_type, Value* value, Value* ptr)
      : Instruction({.opcode = Opcode::Store, .type = void_type}, "",
                    {value, ptr}) {}

  Value* value() const { return operand(0); }
  Value* pointer() const { return operand(1); }
  unsigned alignment() const { return align_; }
  void setAlignment(unsigned a) { align_ = a; bumpFunctionGeneration(); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Store;
  }
};

/// Pointer arithmetic: base operand(0) of type ptr<sourceElement()>, then
/// LLVM-style indices (first index scales by the full element size, later
/// indices step into arrays/structs).
class GepInst : public Instruction {
 public:
  using Instruction::Instruction;
  GepInst(Type* result_ptr, Type* source_elem, Value* base,
          std::vector<Value*> indices, std::string name);

  Type* sourceElement() const { return extra_type_; }
  Value* base() const { return operand(0); }
  std::size_t numIndices() const { return numOperands() - 1; }
  Value* index(std::size_t i) const { return operand(i + 1); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Gep;
  }
};

/// SSA phi node; operands alternate [value0, block0, value1, block1, ...].
class PhiInst : public Instruction {
 public:
  using Instruction::Instruction;
  PhiInst(Type* type, std::string name)
      : Instruction({.opcode = Opcode::Phi, .type = type}, std::move(name),
                    0) {}

  std::size_t numIncoming() const { return numOperands() / 2; }
  Value* incomingValue(std::size_t i) const { return operand(2 * i); }
  BasicBlock* incomingBlock(std::size_t i) const;
  void setIncomingValue(std::size_t i, Value* v) { setOperand(2 * i, v); }
  void addIncoming(Value* value, BasicBlock* block);
  /// Removes the incoming edge from \p block (must exist).
  void removeIncoming(BasicBlock* block);
  /// Value flowing in from \p block (checked).
  Value* incomingForBlock(BasicBlock* block) const;
  /// Index of \p block among incoming edges, or npos.
  std::size_t indexOfBlock(BasicBlock* block) const;

  /// If all incoming values are the same value V (ignoring self-references),
  /// returns V; otherwise nullptr.
  Value* uniformValue() const;

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Phi;
  }
};

/// Direct or indirect call; operand(0) is the callee.
class CallInst : public Instruction {
 public:
  using Instruction::Instruction;
  CallInst(Type* result, Value* callee, std::vector<Value*> args,
           std::string name);

  Value* callee() const { return operand(0); }
  /// Callee as a Function when the call is direct, else nullptr.
  Function* calledFunction() const;
  std::size_t numArgs() const { return numOperands() - 1; }
  Value* arg(std::size_t i) const { return operand(i + 1); }
  /// Removes argument \p i (used by dead-argument elimination).
  void removeArg(std::size_t i) { removeOperandAt(i + 1); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Call;
  }
};

/// Return; optional value operand.
class RetInst : public Instruction {
 public:
  using Instruction::Instruction;
  RetInst(Type* void_type, Value* value);

  bool hasValue() const { return numOperands() == 1; }
  Value* value() const { return operand(0); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Ret;
  }
};

/// Unconditional branch to successor(0).
class BrInst : public Instruction {
 public:
  using Instruction::Instruction;
  BrInst(Type* void_type, BasicBlock* target);

  BasicBlock* target() const { return successor(0); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Br;
  }
};

/// Conditional branch: condition operand(0), then successor, else successor.
class CondBrInst : public Instruction {
 public:
  using Instruction::Instruction;
  CondBrInst(Type* void_type, Value* cond, BasicBlock* then_block,
             BasicBlock* else_block);

  Value* condition() const { return operand(0); }
  BasicBlock* thenBlock() const { return successor(0); }
  BasicBlock* elseBlock() const { return successor(1); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::CondBr;
  }
};

/// Switch: condition operand(0), default operand(1), then [const, block]...
class SwitchInst : public Instruction {
 public:
  using Instruction::Instruction;
  SwitchInst(Type* void_type, Value* cond, BasicBlock* default_block);

  Value* condition() const { return operand(0); }
  BasicBlock* defaultBlock() const;
  std::size_t numCases() const { return (numOperands() - 2) / 2; }
  ConstantInt* caseValue(std::size_t i) const;
  BasicBlock* caseBlock(std::size_t i) const;
  void addCase(ConstantInt* value, BasicBlock* block);
  void removeCase(std::size_t i);

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Switch;
  }
};

/// Unreachable terminator.
class UnreachableInst : public Instruction {
 public:
  using Instruction::Instruction;
  explicit UnreachableInst(Type* void_type)
      : Instruction({.opcode = Opcode::Unreachable, .type = void_type}, "",
                    0) {}

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Unreachable;
  }
};

/// select cond, tval, fval.
class SelectInst : public Instruction {
 public:
  using Instruction::Instruction;
  SelectInst(Type* type, Value* cond, Value* tval, Value* fval,
             std::string name)
      : Instruction({.opcode = Opcode::Select, .type = type}, std::move(name),
                    {cond, tval, fval}) {}

  Value* condition() const { return operand(0); }
  Value* trueValue() const { return operand(1); }
  Value* falseValue() const { return operand(2); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::Select;
  }
};

/// Integer or floating binary operation; opcode selects the operation.
class BinaryInst : public Instruction {
 public:
  using Instruction::Instruction;
  BinaryInst(Opcode op, Type* type, Value* lhs, Value* rhs, std::string name)
      : Instruction({.opcode = op, .type = type}, std::move(name),
                    {lhs, rhs}) {
    POSETRL_CHECK(isBinaryOp(), "BinaryInst with non-binary opcode");
  }

  Value* lhs() const { return operand(0); }
  Value* rhs() const { return operand(1); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->isBinaryOp();
  }
};

/// Integer comparison, result i1.
class ICmpInst : public Instruction {
 public:
  enum class Pred { EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE };

  using Instruction::Instruction;
  ICmpInst(Type* i1_type, Pred pred, Value* lhs, Value* rhs, std::string name)
      : Instruction({.opcode = Opcode::ICmp,
                     .pred = static_cast<int>(pred),
                     .type = i1_type},
                    std::move(name), {lhs, rhs}) {}

  Pred pred() const { return static_cast<Pred>(pred_); }
  void setPred(Pred p) {
    pred_ = static_cast<int>(p);
    bumpFunctionGeneration();
  }
  Value* lhs() const { return operand(0); }
  Value* rhs() const { return operand(1); }

  /// Predicate with operands swapped (e.g. SLT -> SGT).
  static Pred swapped(Pred p);
  /// Logical negation (e.g. SLT -> SGE).
  static Pred inverse(Pred p);
  static const char* predName(Pred p);
  /// Evaluates the predicate over canonical (sign-extended) constants.
  static bool evaluate(Pred p, std::int64_t lhs, std::int64_t rhs,
                       unsigned bits);

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::ICmp;
  }
};

/// Floating-point comparison (ordered predicates only), result i1.
class FCmpInst : public Instruction {
 public:
  enum class Pred { OEQ, ONE, OLT, OLE, OGT, OGE };

  using Instruction::Instruction;
  FCmpInst(Type* i1_type, Pred pred, Value* lhs, Value* rhs, std::string name)
      : Instruction({.opcode = Opcode::FCmp,
                     .pred = static_cast<int>(pred),
                     .type = i1_type},
                    std::move(name), {lhs, rhs}) {}

  Pred pred() const { return static_cast<Pred>(pred_); }
  Value* lhs() const { return operand(0); }
  Value* rhs() const { return operand(1); }

  static const char* predName(Pred p);
  static bool evaluate(Pred p, double lhs, double rhs);

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->opcode() == Opcode::FCmp;
  }
};

/// Conversion instruction; opcode selects the conversion.
class CastInst : public Instruction {
 public:
  using Instruction::Instruction;
  CastInst(Opcode op, Type* to, Value* value, std::string name)
      : Instruction({.opcode = op, .type = to}, std::move(name), {value}) {
    POSETRL_CHECK(isCast(), "CastInst with non-cast opcode");
  }

  Value* value() const { return operand(0); }

  static bool classof(const Value* v) {
    auto* i = dynCast<Instruction>(v);
    return i && i->isCast();
  }
};

}  // namespace posetrl
