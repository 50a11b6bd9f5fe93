#pragma once

/// \file arena.h
/// Bump-pointer arena for MiniIR objects. A Module owns one BumpArena;
/// Instructions and BasicBlocks created while an ArenaScope for that arena
/// is active are carved out of large chunks instead of individual heap
/// allocations. Pass pipelines churn through instructions (create/erase per
/// pass), so the arena recycles freed blocks through size-bucketed free
/// lists rather than rewinding: interned constants, functions and analysis
/// side tables hold pointers into earlier allocations, and a rewind would
/// turn those into dangling references.
///
/// Ownership rules (see DESIGN.md, "Memory layout and arenas"):
///   - The arena is a memory source, not an owner. Object lifetime is still
///     managed by unique_ptr in the IR containers; `operator delete` returns
///     the block to the arena's free list (or the heap, for objects created
///     outside any scope).
///   - Every allocation carries a 16-byte header recording its source arena
///     and size, so deallocation dispatches correctly no matter which scope
///     (or none) is active at destruction time.
///   - mark()/rewindTo() exists for bulk-discard use cases (and tests); the
///     Module never rewinds its own arena, because live interned values may
///     predate any mark. Rewinding also empties the free lists, since freed
///     blocks may chain through memory past the mark.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace posetrl {

/// Chunked bump allocator with size-bucketed intrusive free lists.
/// Not thread-safe; each Module's arena is touched only by the thread
/// mutating that module (the same contract the IR itself has).
class BumpArena {
 public:
  /// Largest block served from the arena; bigger requests fall back to the
  /// heap (the header marks them so deallocation still works).
  static constexpr std::size_t kMaxBlock = 512;

  explicit BumpArena(std::size_t first_chunk_bytes = 64 * 1024);
  ~BumpArena();
  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// Returns a 16-byte-aligned block of at least \p bytes (<= kMaxBlock),
  /// reusing a freed block of the same size class when one is available.
  void* allocate(std::size_t bytes);

  /// Recycles \p p (a block previously returned by allocate with the same
  /// rounded size) into the matching free list.
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Bulk-discard marker: everything allocated after mark() is invalidated
  /// by rewindTo(). Free lists are emptied as well (freed blocks may live
  /// past the mark). Only safe when no live object allocated after the mark
  /// remains reachable.
  struct Marker {
    std::size_t chunk_index = 0;
    std::size_t used = 0;
  };
  Marker mark() const { return {chunks_.size() - 1, used_}; }
  void rewindTo(Marker m) noexcept;

  // --- introspection (tests, bench) ---
  std::size_t bytesAllocated() const { return bytes_allocated_; }
  std::size_t bytesRecycled() const { return bytes_recycled_; }

 private:
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kNumBuckets = kMaxBlock / kAlign;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  struct FreeNode {
    FreeNode* next;
  };

  void addChunk(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t used_ = 0;  ///< bump offset into chunks_.back()
  FreeNode* free_lists_[kNumBuckets] = {};
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_recycled_ = 0;
};

/// RAII thread-local arena scope: while active, arena-aware `operator new`
/// overloads (Instruction, BasicBlock) draw from this arena. Scopes nest;
/// the innermost wins. Installed around every site that materializes IR for
/// a specific module: parsing, program generation, cloneModule, sandboxed
/// actions, pass sequences, and snapshot restore.
class ArenaScope {
 public:
  explicit ArenaScope(BumpArena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// The innermost active arena on this thread, or nullptr.
  static BumpArena* current();

 private:
  BumpArena* prev_;
};

/// Allocates \p bytes from the current ArenaScope's arena (heap fallback
/// when none is active or the request exceeds kMaxBlock). The returned
/// block is preceded by a header identifying its source, so
/// arenaDeallocate() works regardless of the scope active at free time.
void* arenaAllocate(std::size_t bytes);
void arenaDeallocate(void* p) noexcept;

}  // namespace posetrl
