#pragma once

/// \file parallel.h
/// A small fork-join pool for the learner's batched update, made ambient for
/// a stretch of code by a thread-local RAII scope (like ArenaScope and
/// AnalysisScope). Code that can split its work asks plannedParts() how many
/// parts are worth forking and runs them with forkJoin(); with no scope
/// installed both collapse to one inline part, so every caller outside a
/// scope keeps the serial path.
///
/// Rules (DESIGN.md §12, "Learner pool"):
///   - The calling thread runs part 0 itself; part p > 0 is handed to
///     helper p, so a part's slice of the data stays in one core's cache
///     from call to call. Done with part 0, the caller runs every part
///     whose helper has not started it yet (the helper was parked, or its
///     vCPU descheduled), then waits for the parts in flight.
///   - Helpers spin for a few tens of microseconds after a part, which
///     covers the gap between the phases of an update and between the
///     updates of a burst, then park on std::atomic::wait.
///   - Helpers start lazily, on the first fork that needs them, and are
///     joined when the scope ends: no thread outlives its scope, so a
///     process may fork() between scopes.
///   - A fork issued while the pool is already running one (from inside a
///     part) runs its parts inline on the calling thread.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace posetrl {

/// The calling thread plus width-1 helper threads.
class WorkerPool {
 public:
  explicit WorkerPool(std::size_t width);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t width() const { return width_; }
  /// True while a fork is in flight (between its first part and its join).
  bool busy() const { return busy_.load(std::memory_order_relaxed); }

  /// Runs body(p) for every part p in [0, parts), 1 <= parts <= width(),
  /// each exactly once, and returns once all have finished. An exception a
  /// part throws is rethrown here after the join; when several throw, the
  /// lowest part's wins. Called on a busy pool, the parts run inline in
  /// part order.
  template <typename F>
  void run(std::size_t parts, F&& body) {
    using Body = std::remove_reference_t<F>;
    runErased(
        parts,
        [](void* ctx, std::size_t part) { (*static_cast<Body*>(ctx))(part); },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

 private:
  struct Slot;
  using PartFn = void (*)(void*, std::size_t);

  void runErased(std::size_t parts, PartFn fn, void* ctx);
  void helperLoop(std::size_t part);
  void runPart(std::size_t part);

  const std::size_t width_;
  std::unique_ptr<Slot[]> slots_;  ///< slots_[p] hands part p to helper p
  std::vector<std::thread> helpers_;  ///< helpers_[p-1] runs part p
  // The fork in flight: written before a slot is signalled, read by the
  // helper after it sees the signal.
  PartFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::vector<std::exception_ptr> errors_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> busy_{false};  ///< written by the caller only
  std::atomic<std::uint32_t> pending_{0};  ///< helper parts not yet finished
  std::atomic<bool> caller_parked_{false};
};

/// CPUs in this process's affinity mask (at least 1).
std::size_t affinityWidth();

/// RAII: owns a WorkerPool and makes it this thread's current pool. Scopes
/// nest; the innermost wins, and the previous pool is restored on exit.
class ParallelScope {
 public:
  /// A pool as wide as the process's affinity mask.
  ParallelScope();
  explicit ParallelScope(std::size_t width);
  ~ParallelScope();
  ParallelScope(const ParallelScope&) = delete;
  ParallelScope& operator=(const ParallelScope&) = delete;

  WorkerPool& pool() { return pool_; }

  /// This thread's innermost pool, or nullptr when no scope is installed or
  /// the pool is busy (a fork from inside a part stays serial).
  static WorkerPool* current();

 private:
  WorkerPool pool_;
  WorkerPool* prev_;
};

/// Parts worth forking for \p work units at no fewer than \p grain units
/// per part, capped at \p limit and at the current pool's width; 1 when no
/// pool is current.
std::size_t plannedParts(std::size_t work, std::size_t grain,
                         std::size_t limit);

/// Runs body(p) for p in [0, parts) on the current pool, or inline in part
/// order when there is none or parts is 1.
template <typename F>
void forkJoin(std::size_t parts, F&& body) {
  WorkerPool* pool = ParallelScope::current();
  if (parts <= 1 || pool == nullptr) {
    for (std::size_t p = 0; p < parts; ++p) body(p);
    return;
  }
  pool->run(parts, body);
}

/// Start of range \p p when [0, n) is cut into \p parts contiguous ranges
/// of near-equal size whose inner boundaries are multiples of \p align (or
/// n); splitPoint(n, parts, parts, align) is n. Ranges may be empty when n
/// is small against parts * align.
inline std::size_t splitPoint(std::size_t n, std::size_t parts,
                              std::size_t p, std::size_t align) {
  if (p >= parts) return n;
  const std::size_t at = n / parts * p + n % parts * p / parts;
  return std::min(n, (at + align / 2) / align * align);
}

}  // namespace posetrl
