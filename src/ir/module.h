#pragma once

/// \file module.h
/// Top-level MiniIR container: owns the type context, interned constants,
/// global variables, and functions. One Module corresponds to one translation
/// unit / one RL-environment state in the POSET-RL loop.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/type.h"
#include "ir/value.h"
#include "support/arena.h"

namespace posetrl {

/// A MiniIR translation unit.
class Module {
 public:
  explicit Module(std::string name);
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  TypeContext& types() { return types_; }

  /// Bump arena feeding Instruction/BasicBlock storage while an ArenaScope
  /// for it is active (parsing, generation, cloning, pass execution,
  /// snapshot restore). Declared first in the member list so it outlives
  /// every IR container during destruction.
  BumpArena& arena() { return arena_; }

  /// Object-identity generation: bumped whenever IR objects of this module
  /// are destroyed and recreated wholesale (ModuleSnapshot::restoreInto).
  /// Pointer-holding caches (AnalysisManager results) compare their
  /// recorded generation against this and self-invalidate on mismatch even
  /// when the content fingerprint matches — restored blocks/instructions
  /// are new objects at new addresses.
  std::uint64_t irGeneration() const { return ir_generation_; }
  void bumpIrGeneration() { ++ir_generation_; }

  /// Content stamp: a cheap O(1) proxy for "has the IR changed since".
  /// Bumped after every pass execution that may have mutated the module;
  /// restored (not re-bumped) on snapshot rollback, so a stamp value maps
  /// to exactly one module content for the module's lifetime (the monotonic
  /// high-water counter is never rolled back). Consumers: the environment's
  /// embedding-hash, reward-model and no-op step memos (O(1) hits).
  std::uint64_t contentStamp() const { return content_stamp_; }
  void bumpContentStamp() { content_stamp_ = ++next_content_stamp_; }

  // --- Constants (interned; stable for the module's lifetime) ---
  ConstantInt* constantInt(Type* type, std::int64_t value);
  ConstantInt* i64Const(std::int64_t value);
  ConstantInt* i32Const(std::int64_t value);
  ConstantInt* i1Const(bool value);
  ConstantFloat* constantFloat(double value);
  ConstantNull* nullConst(Type* ptr_type);
  UndefValue* undef(Type* type);

  // --- Functions ---
  using FuncList = std::list<std::unique_ptr<Function>>;
  const FuncList& functions() const { return functions_; }
  FuncList::iterator functionsBegin() { return functions_.begin(); }
  FuncList::iterator functionsEnd() { return functions_.end(); }
  Function* getFunction(const std::string& name) const;
  /// Creates a new function (name must be unused).
  Function* createFunction(const std::string& name, Type* func_type,
                           Function::Linkage linkage);
  /// Returns the existing function of this name or creates a declaration.
  Function* getOrInsertFunction(const std::string& name, Type* func_type);
  /// Unlinks and destroys \p f (must have no uses).
  void eraseFunction(Function* f);

  /// Declaration of a modeled intrinsic (created on demand).
  Function* getIntrinsic(IntrinsicId id);
  /// Alignment-assumption intrinsic specialized on pointee type \p elem.
  Function* getAssumeAligned(Type* elem);

  /// Memset intrinsic specialized on element type \p elem:
  /// pr.memset.<T>(ptr<T>, i8 byte, i64 count) fills count*sizeof(T) bytes.
  Function* getMemsetFor(Type* elem);

  // --- Globals ---
  using GlobalList = std::list<std::unique_ptr<GlobalVariable>>;
  const GlobalList& globals() const { return globals_; }
  GlobalVariable* getGlobal(const std::string& name) const;
  GlobalVariable* createGlobal(const std::string& name, Type* value_type,
                               GlobalInit init,
                               GlobalVariable::Linkage linkage,
                               bool is_const = false);
  void eraseGlobal(GlobalVariable* g);

  /// Total instruction count over all function bodies.
  std::size_t instructionCount() const;

 private:
  friend class ModuleSnapshot;

  /// Restore-only: reinstates a recorded stamp after rollback. Private so
  /// ordinary code can only move the stamp forward via bumpContentStamp().
  void restoreContentStamp(std::uint64_t stamp) { content_stamp_ = stamp; }

  BumpArena arena_;  // first: outlives all IR containers below
  std::string name_;
  TypeContext types_;
  FuncList functions_;
  GlobalList globals_;
  std::uint64_t ir_generation_ = 0;
  std::uint64_t content_stamp_ = 0;
  std::uint64_t next_content_stamp_ = 0;

  std::map<std::pair<Type*, std::int64_t>, std::unique_ptr<ConstantInt>>
      int_constants_;
  std::map<std::uint64_t, std::unique_ptr<ConstantFloat>> float_constants_;
  std::map<Type*, std::unique_ptr<ConstantNull>> null_constants_;
  std::map<Type*, std::unique_ptr<UndefValue>> undef_constants_;
};

}  // namespace posetrl
