#pragma once

/// \file snapshot.h
/// Flat-buffer module snapshots with in-place restore: the sandbox's
/// rollback primitive. capture() encodes every function body into dense
/// POD records (each instruction's InstAttrs, name and operand ids; no IR
/// objects, no per-value allocations); restoreInto() rebuilds the bodies
/// inside the *same* Module object through Instruction::create and
/// bindOperand, drawing instruction/block storage from the module's bump
/// arena.
///
/// Contrast with cloneModule: a clone materializes a second full object
/// graph up front (the dominant cost of every environment step), and
/// rolling back by swapping modules destroys all symbol identity —
/// forcing wholesale invalidation of the AnalysisManager and the fast
/// verifier's clean-function cache. The snapshot keeps the Module,
/// TypeContext, interned constants, and (whenever the action did not add
/// or remove symbols) the Function/GlobalVariable objects themselves
/// stable across a rollback, so pointer-keyed caches can be rehydrated
/// precisely instead of dropped (see DESIGN.md, "Memory layout and
/// arenas").
///
/// Identity contract after restoreInto():
///   - Module, TypeContext (all Type*), and interned constants: same
///     objects, always.
///   - Function / GlobalVariable / Argument objects: same objects iff the
///     symbol existed at capture time with the same signature; the result's
///     `symbols_preserved` reports whether this held for *all* symbols.
///   - BasicBlock / Instruction objects: always recreated (new addresses).
///     Module::irGeneration() is bumped so generation-stamped caches
///     (AnalysisManager) self-invalidate even though the content
///     fingerprint reverts to its pre-action value.
///   - Module::contentStamp() is restored to its capture-time value (the
///     stamp uniquely identifies this content; see module.h).

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"

namespace posetrl {

class Module;

/// One captured module state. Reusable: capture() clears and refills the
/// buffers (the environment keeps one scratch snapshot per step to avoid
/// re-allocating them), and restoreInto() may be called any number of
/// times. A snapshot is only valid for the module it was captured from —
/// it stores raw Type* and interned-constant pointers, which are stable
/// for that module's lifetime but meaningless in any other.
class ModuleSnapshot {
 public:
  /// Encodes \p m's current state, replacing any previous capture.
  void capture(const Module& m);

  struct RestoreResult {
    /// True when every Function/GlobalVariable object present at capture
    /// time survived in place (nothing created, erased, or re-signatured in
    /// between). When false, pointer caches keyed by module-level symbols
    /// (the fast verifier's clean-function cache) must be cleared: their
    /// keys may dangle or alias recycled addresses.
    bool symbols_preserved = true;
  };

  /// Rebuilds the captured state inside \p m (must be the captured module).
  /// If it throws (an operand id that cannot resolve, under a
  /// ScopedFaultTrap), \p m is left half-built but can still be destroyed
  /// or restored from another snapshot.
  RestoreResult restoreInto(Module& m) const;

  bool valid() const { return source_ != nullptr; }
  /// True when this snapshot was captured from \p m and m's content stamp
  /// still equals the capture-time stamp. Stamps are never reused for
  /// different content (module.h), so a matching snapshot already encodes
  /// the module's current state and capture() can be skipped.
  bool matches(const Module& m) const;
  const Module* source() const { return source_; }
  std::size_t instructionCount() const { return insts_.size(); }

 private:
  struct NameRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  struct InstRec {
    InstAttrs attrs;
    NameRef name;
    std::uint32_t first_op = 0, num_ops = 0;
  };
  struct BlockRec {
    NameRef name;
    std::uint32_t first_inst = 0, num_insts = 0;
  };
  struct FuncRec {
    NameRef name;
    Type* type = nullptr;
    Function::Linkage linkage = Function::Linkage::External;
    IntrinsicId intrinsic = IntrinsicId::None;
    std::uint32_t attrs = 0;
    std::uint64_t next_value = 0, next_block = 0;
    std::uint32_t first_arg = 0, num_args = 0;
    std::uint32_t first_block = 0, num_blocks = 0;
  };
  struct GlobalRec {
    NameRef name;
    Type* value_type = nullptr;
    GlobalVariable::Linkage linkage = GlobalVariable::Linkage::External;
    bool is_const = false;
    GlobalInit init;        ///< init.function cleared; see init_func.
    std::int32_t init_func = -1;  ///< FuncPtr target as index into funcs_.
  };

  /// Inline on purpose: capture() calls it once per value.
  NameRef intern(const std::string& s) {
    NameRef r;
    r.offset = static_cast<std::uint32_t>(names_.size());
    r.length = static_cast<std::uint32_t>(s.size());
    names_.append(s);
    return r;
  }
  std::string_view view(NameRef r) const {
    return std::string_view(names_).substr(r.offset, r.length);
  }
  std::uint64_t encodeOperand(const Value* v, std::uint64_t gen) const;

  const Module* source_ = nullptr;
  std::uint64_t content_stamp_ = 0;
  std::uint64_t num_ids_ = 0;
  std::vector<FuncRec> funcs_;
  std::vector<NameRef> arg_names_;
  std::vector<GlobalRec> globals_;
  std::vector<BlockRec> blocks_;
  std::vector<InstRec> insts_;
  /// Operand entries: LSB set → dense value id (table index << 1 | 1);
  /// LSB clear → raw Value* of an interned constant (stable for the
  /// module's lifetime; heap pointers are at least 8-aligned).
  std::vector<std::uint64_t> operands_;
  std::string names_;
};

}  // namespace posetrl
