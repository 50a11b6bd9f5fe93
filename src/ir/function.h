#pragma once

/// \file function.h
/// Functions: argument lists, basic-block lists, linkage and attributes.
/// Attribute flags mirror the LLVM attributes the Oz passes manipulate
/// (functionattrs / rpo-functionattrs / inferattrs / forceattrs / attributor).

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/value.h"

namespace posetrl {

class Module;

/// Function attribute bit flags.
enum class FnAttr : std::uint32_t {
  NoInline = 1u << 0,
  AlwaysInline = 1u << 1,
  ReadNone = 1u << 2,  ///< Accesses no memory (pure).
  ReadOnly = 1u << 3,  ///< Reads but never writes memory.
  NoUnwind = 1u << 4,
  NoReturn = 1u << 5,
  Cold = 1u << 6,
  OptSize = 1u << 7,
};

/// Known intrinsic/runtime functions (declarations with modeled semantics).
enum class IntrinsicId {
  None,
  Input,          ///< pr.input(i64) -> i64 : deterministic external input.
  Sink,           ///< pr.sink(i64) : observable side effect.
  SinkF64,        ///< pr.sinkf(f64) : observable side effect.
  Memset,         ///< pr.memset(ptr<i8>, i8, i64) : fill memory.
  Expect,         ///< pr.expect(i64, i64) -> i64 : branch-weight hint.
  Assume,         ///< pr.assume(i1) : optimizer hint, no runtime effect.
  AssumeAligned,  ///< pr.assume_aligned.<T>(ptr<T>, i64) : alignment hint.
};

/// A function definition or declaration.
class Function : public Value {
 public:
  using BlockList = std::list<std::unique_ptr<BasicBlock>>;

  Function(Type* func_type, std::string name, Module* parent);

  Module* parent() const { return parent_; }
  Type* functionType() const { return type(); }
  Type* returnType() const { return type()->funcReturn(); }

  enum class Linkage { External, Internal };
  Linkage linkage() const { return linkage_; }
  void setLinkage(Linkage l) { linkage_ = l; }
  bool isInternal() const { return linkage_ == Linkage::Internal; }

  bool isDeclaration() const { return blocks_.empty(); }

  IntrinsicId intrinsicId() const { return intrinsic_; }
  void setIntrinsicId(IntrinsicId id) { intrinsic_ = id; }
  bool isIntrinsic() const { return intrinsic_ != IntrinsicId::None; }

  bool hasAttr(FnAttr a) const {
    return (attrs_ & static_cast<std::uint32_t>(a)) != 0;
  }
  void addAttr(FnAttr a) { attrs_ |= static_cast<std::uint32_t>(a); }
  std::uint32_t rawAttrs() const { return attrs_; }
  void setRawAttrs(std::uint32_t attrs) { attrs_ = attrs; }

  // Arguments.
  std::size_t numArgs() const { return args_.size(); }
  Argument* arg(std::size_t i) const { return args_[i].get(); }
  const std::vector<std::unique_ptr<Argument>>& args() const { return args_; }
  /// Removes argument \p i (dead-argument elimination); the function type is
  /// updated and remaining argument indices are renumbered.
  void removeArg(std::size_t i);

  /// Rewrites the function type in place. Callers (attributor's dead-return
  /// elimination, deadargelim) are responsible for fixing returns and call
  /// sites; \p new_type must keep the parameter list consistent with args().
  void setFunctionTypeUnchecked(Type* new_type) {
    mutateType(new_type);
    bumpBodyGeneration();
  }

  /// Body generation. Every write to this function's body, or to a value
  /// the body owns, bumps it: block list edits, instruction placement,
  /// operands and attributes, the signature, use lists and name presence of
  /// its arguments, blocks and instructions, and renames of the globals and
  /// functions its body references. An unchanged generation therefore
  /// means an unchanged fingerprintFunction result.
  std::uint64_t bodyGeneration() const { return body_generation_; }
  void bumpBodyGeneration() { ++body_generation_; }

  /// fingerprintFunction's memo (analysis/analysis_manager.h): the hashes of
  /// the last walk, valid while `generation` equals bodyGeneration(). Like
  /// the Value scratch slot it is written during walks of a const function,
  /// so the same rule applies: only the thread that owns the module walks it.
  struct FingerprintMemo {
    std::uint64_t generation = 0;  ///< 0: never walked.
    std::uint64_t cfg = 0, instrs = 0, aux = 0;
  };
  FingerprintMemo& fingerprintMemo() const { return fingerprint_memo_; }

  // Blocks.
  const BlockList& blocks() const { return blocks_; }
  BlockList::iterator blocksBegin() { return blocks_.begin(); }
  BlockList::iterator blocksEnd() { return blocks_.end(); }
  std::size_t numBlocks() const { return blocks_.size(); }
  BasicBlock* entry() const {
    POSETRL_CHECK(!blocks_.empty(), "entry() on declaration");
    return blocks_.front().get();
  }

  /// Appends a fresh block named \p name (made unique within the function).
  BasicBlock* addBlock(const std::string& name);
  /// Inserts a fresh block right after \p after.
  BasicBlock* addBlockAfter(BasicBlock* after, const std::string& name);
  /// Unlinks and destroys \p bb (must have no uses).
  void eraseBlock(BasicBlock* bb);
  /// Moves \p bb to the front, making it the entry block.
  void makeEntry(BasicBlock* bb);

  /// Fresh SSA value name ("t0", "t1", ...) unique within this function.
  std::string nextValueName();
  /// Fresh block name derived from \p base.
  std::string uniqueBlockName(const std::string& base);

  /// Re-derives the naming counters from the body: one past the highest
  /// "tN" value name and the highest ".N" block-name suffix. The parser
  /// calls this after reading a body, since the text carries names but not
  /// counters.
  ///
  /// Naming-counter invariant: next_value_ > N for every value named "tN"
  /// and next_block_ > N for every block named "<base>.N", so fresh names
  /// never collide with existing ones. The builder, the parser, cloneModule
  /// and snapshot restore all maintain it.
  void resetNameCounters();

  /// Total instruction count across all blocks.
  std::size_t instructionCount() const;

  static bool classof(const Value* v) { return v->kind() == Kind::Function; }

 private:
  friend class BasicBlock;
  /// Snapshot restore rebuilds blocks_/args_ and reinstates the name
  /// counters in place (ir/snapshot.cpp).
  friend class ModuleSnapshot;
  /// Copies the name counters along with the body.
  friend std::unique_ptr<Module> cloneModule(const Module& src);

  Module* parent_;
  Linkage linkage_ = Linkage::External;
  IntrinsicId intrinsic_ = IntrinsicId::None;
  std::uint32_t attrs_ = 0;
  std::vector<std::unique_ptr<Argument>> args_;
  BlockList blocks_;
  std::uint64_t next_value_ = 0;
  std::uint64_t next_block_ = 0;
  std::uint64_t body_generation_ = 1;
  mutable FingerprintMemo fingerprint_memo_;
};

}  // namespace posetrl
