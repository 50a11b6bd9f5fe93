#pragma once

/// \file value.h
/// Base class of the MiniIR value hierarchy plus constants and function
/// arguments. Every SSA value (instruction result, argument, constant,
/// global address, basic-block label, function address) is a Value.
///
/// Use-def bookkeeping: every Instruction records its operand Values, and
/// every Value keeps the (multi-)list of instructions using it, enabling
/// `replaceAllUsesWith` — the workhorse of nearly every optimization pass.
/// A use is registered only when an operand slot is filled
/// (Instruction::bindOperand, setOperand, or an appended phi/switch entry).
/// Copy paths create instructions with unbound slots and bind destination
/// values only, so copying a module never writes to the source's user lists.
///
/// Change tracking: every write that can change what fingerprintFunction
/// hashes for a function bumps that function's body generation
/// (Function::bodyGeneration). Here that means a use-list edit or a name
/// gaining/losing presence on a value the function owns (argument, block,
/// placed instruction), and the rename of a global or function, which bumps
/// every function whose body references it.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.h"
#include "support/error.h"

namespace posetrl {

class Instruction;

/// Root of the MiniIR value hierarchy.
class Value {
 public:
  enum class Kind {
    ConstantInt,
    ConstantFloat,
    ConstantNull,
    Undef,
    Argument,
    BasicBlock,
    GlobalVariable,
    Function,
    Instruction,
  };

  virtual ~Value() = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  Kind kind() const { return kind_; }
  Type* type() const { return type_; }

  const std::string& name() const { return name_; }
  void setName(std::string name);

  /// Instructions using this value, one entry per operand slot (so an
  /// instruction using the value twice appears twice).
  const std::vector<Instruction*>& users() const { return users_; }
  bool hasUses() const { return !users_.empty(); }
  std::size_t numUses() const { return users_.size(); }

  /// Rewrites every use of this value to \p replacement.
  void replaceAllUsesWith(Value* replacement);

  bool isConstant() const {
    return kind_ == Kind::ConstantInt || kind_ == Kind::ConstantFloat ||
           kind_ == Kind::ConstantNull || kind_ == Kind::Undef;
  }

  /// Scratch value-numbering slot for stamping walks (analysis
  /// fingerprints, the fast verifier's local numbering, module snapshots).
  /// The id is only meaningful while \p generation matches the walk that
  /// stamped it, so no clearing pass is ever needed. Generations are unique
  /// across threads and a module is never walked from two threads at once,
  /// so the slot is safe for per-actor environments and serve workers.
  void stampFingerprintId(std::uint64_t generation, std::uint64_t id) const {
    fp_gen_ = generation;
    fp_id_ = id;
  }
  bool fingerprintIdValid(std::uint64_t generation) const {
    return fp_gen_ == generation;
  }
  std::uint64_t fingerprintId() const { return fp_id_; }

  /// Fresh generation for a stamping walk over the scratch slot above. All
  /// walkers (analysis fingerprints, module snapshots, the structural
  /// content hash) must draw from this single thread-local counter: two
  /// walkers with independent counters could hand out the same generation
  /// and silently accept each other's stale ids. The counter is
  /// thread-local, but each thread counts within its own range.
  static std::uint64_t nextStampGeneration();

 protected:
  Value(Kind kind, Type* type, std::string name)
      : kind_(kind), type_(type), name_(std::move(name)) {}

  /// Re-seats the value's type. Only Function uses this (dead-argument
  /// elimination rewrites signatures); all other values have fixed types.
  void mutateType(Type* t) { type_ = t; }

 private:
  friend class Instruction;
  void addUser(Instruction* user);
  void removeUser(Instruction* user);

  Kind kind_;
  Type* type_;
  std::string name_;
  std::vector<Instruction*> users_;
  mutable std::uint64_t fp_gen_ = 0;
  mutable std::uint64_t fp_id_ = 0;
};

/// LLVM-style lightweight RTTI helpers.
template <typename T>
bool isa(const Value* v) {
  return v != nullptr && T::classof(v);
}

template <typename T>
T* dynCast(Value* v) {
  return isa<T>(v) ? static_cast<T*>(v) : nullptr;
}

template <typename T>
const T* dynCast(const Value* v) {
  return isa<T>(v) ? static_cast<const T*>(v) : nullptr;
}

template <typename T>
T* cast(Value* v) {
  POSETRL_CHECK(isa<T>(v), "bad cast of IR value");
  return static_cast<T*>(v);
}

template <typename T>
const T* cast(const Value* v) {
  POSETRL_CHECK(isa<T>(v), "bad cast of IR value");
  return static_cast<const T*>(v);
}

/// Integer constant. Stored sign-extended to 64 bits; the value is always
/// kept truncated to the type's width (two's complement).
class ConstantInt : public Value {
 public:
  ConstantInt(Type* type, std::int64_t value)
      : Value(Kind::ConstantInt, type, ""), value_(value) {
    POSETRL_CHECK(type->isInteger(), "ConstantInt needs integer type");
  }

  /// Sign-extended value.
  std::int64_t value() const { return value_; }
  /// Zero-extended (bit-pattern) value.
  std::uint64_t zextValue() const;
  bool isZero() const { return value_ == 0; }
  bool isOne() const { return value_ == 1; }
  bool isAllOnes() const { return value_ == -1; }

  /// Truncates \p v to \p bits and sign-extends back (canonical storage).
  static std::int64_t canonicalize(std::int64_t v, unsigned bits);

  static bool classof(const Value* v) { return v->kind() == Kind::ConstantInt; }

 private:
  std::int64_t value_;
};

/// Floating-point constant (f64).
class ConstantFloat : public Value {
 public:
  ConstantFloat(Type* type, double value)
      : Value(Kind::ConstantFloat, type, ""), value_(value) {
    POSETRL_CHECK(type->isFloat(), "ConstantFloat needs float type");
  }

  double value() const { return value_; }

  static bool classof(const Value* v) {
    return v->kind() == Kind::ConstantFloat;
  }

 private:
  double value_;
};

/// Null pointer constant.
class ConstantNull : public Value {
 public:
  explicit ConstantNull(Type* type) : Value(Kind::ConstantNull, type, "") {
    POSETRL_CHECK(type->isPointer(), "ConstantNull needs pointer type");
  }

  static bool classof(const Value* v) {
    return v->kind() == Kind::ConstantNull;
  }
};

/// Undefined value of a first-class type.
class UndefValue : public Value {
 public:
  explicit UndefValue(Type* type) : Value(Kind::Undef, type, "") {}

  static bool classof(const Value* v) { return v->kind() == Kind::Undef; }
};

class Function;

/// Formal parameter of a function.
class Argument : public Value {
 public:
  Argument(Type* type, std::string name, Function* parent, unsigned index)
      : Value(Kind::Argument, type, std::move(name)),
        parent_(parent),
        index_(index) {}

  Function* parent() const { return parent_; }
  unsigned index() const { return index_; }
  void setIndex(unsigned index) { index_ = index; }

  static bool classof(const Value* v) { return v->kind() == Kind::Argument; }

 private:
  Function* parent_;
  unsigned index_;
};

}  // namespace posetrl
