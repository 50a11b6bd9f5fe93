#include "support/parallel.h"

#include <sched.h>

#include <algorithm>
#include <chrono>

#include "support/error.h"

namespace posetrl {

namespace {

/// How long a helper spins for its next part before it parks: long enough
/// to bridge the serial gaps between the phases of one update and between
/// the updates of a burst, short enough that idle helpers leave the cores
/// to the environment steps between bursts.
constexpr auto kHelperSpin = std::chrono::microseconds(50);

/// How long the caller spins for its helpers' parts before it parks.
/// Waking a parked thread costs about as much as the helper spin on a
/// virtual machine (a halted vCPU needs an interrupt): a caller that parked
/// whenever a part ran long came back after its helpers had parked too,
/// and every later fork then paid two wake-ups. Longer than any GEMM or
/// Adam part, so only long parts (the parallel trainer's episodes) park.
constexpr auto kJoinSpin = std::chrono::milliseconds(1);

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Spins until \p ready() holds or \p limit has passed; returns ready().
template <typename Ready>
bool spinFor(std::chrono::microseconds limit, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpuRelax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
      return ready();
    }
  }
}

thread_local WorkerPool* g_current_pool = nullptr;

}  // namespace

/// Helper p's mailbox, on its own cache line so a spinning helper reads
/// nothing another thread writes between forks. go turns 1 when the caller
/// hands the helper its part (or asks it to stop) and back to 0 when the
/// helper takes the signal; parked says the helper sleeps on go and needs a
/// notify. open says part p of the current fork has not started: whichever
/// of the helper and the caller clears it runs the part. The caller sets
/// open before go and the helper clears go before it tests open, so a
/// helper that takes a late signal (the caller ran its part of an earlier
/// fork) runs its part of the current fork or nothing.
struct alignas(64) WorkerPool::Slot {
  std::atomic<std::uint32_t> go{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> open{false};
};

WorkerPool::WorkerPool(std::size_t width)
    : width_(std::max<std::size_t>(1, width)),
      slots_(std::make_unique<Slot[]>(width_)),
      errors_(width_) {
  helpers_.reserve(width_ - 1);
}

WorkerPool::~WorkerPool() {
  stop_ = true;
  for (std::size_t p = 1; p <= helpers_.size(); ++p) {
    slots_[p].go.store(1);
    slots_[p].go.notify_one();
  }
  for (std::thread& t : helpers_) t.join();
}

void WorkerPool::helperLoop(std::size_t part) {
  Slot& slot = slots_[part];
  for (;;) {
    // Dekker pairing with runErased: parked is stored before go is read
    // here and go before parked there (all seq_cst), so either this helper
    // sees the signal or the caller sees it parked and notifies.
    if (!spinFor(kHelperSpin, [&] { return slot.go.load() != 0; })) {
      slot.parked.store(true);
      while (slot.go.load() == 0) slot.go.wait(0);
      slot.parked.store(false);
    }
    slot.go.store(0);
    if (stop_) return;
    if (slot.open.exchange(false)) runPart(part);
  }
}

void WorkerPool::runPart(std::size_t part) {
  try {
    fn_(ctx_, part);
  } catch (...) {
    errors_[part] = std::current_exception();
  }
  if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
    pending_.notify_one();
  }
}

void WorkerPool::runErased(std::size_t parts, PartFn fn, void* ctx) {
  POSETRL_CHECK(parts >= 1 && parts <= width_, "fork of ", parts,
                " parts on a pool of width ", width_);
  if (parts == 1 || busy_.load(std::memory_order_relaxed)) {
    for (std::size_t p = 0; p < parts; ++p) fn(ctx, p);
    return;
  }
  while (helpers_.size() < parts - 1) {
    const std::size_t part = helpers_.size() + 1;
    helpers_.emplace_back([this, part] { helperLoop(part); });
  }
  fn_ = fn;
  ctx_ = ctx;
  std::fill(errors_.begin(), errors_.begin() + parts, nullptr);
  pending_.store(static_cast<std::uint32_t>(parts - 1));
  busy_.store(true, std::memory_order_relaxed);
  for (std::size_t p = 1; p < parts; ++p) {
    slots_[p].open.store(true);
    slots_[p].go.store(1);
    if (slots_[p].parked.load()) slots_[p].go.notify_one();
  }
  try {
    fn(ctx, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  // A part its helper has not started runs here: a helper whose vCPU is
  // descheduled would otherwise hold up the whole fork.
  for (std::size_t p = 1; p < parts; ++p) {
    if (slots_[p].open.exchange(false)) runPart(p);
  }
  if (!spinFor(kJoinSpin, [&] { return pending_.load() == 0; })) {
    caller_parked_.store(true);
    for (std::uint32_t left = pending_.load(); left != 0;
         left = pending_.load()) {
      pending_.wait(left);
    }
    caller_parked_.store(false);
  }
  busy_.store(false, std::memory_order_relaxed);
  for (std::size_t p = 0; p < parts; ++p) {
    if (errors_[p]) std::rethrow_exception(errors_[p]);
  }
}

std::size_t affinityWidth() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

ParallelScope::ParallelScope() : ParallelScope(affinityWidth()) {}

ParallelScope::ParallelScope(std::size_t width)
    : pool_(width), prev_(g_current_pool) {
  g_current_pool = &pool_;
}

ParallelScope::~ParallelScope() { g_current_pool = prev_; }

WorkerPool* ParallelScope::current() {
  WorkerPool* pool = g_current_pool;
  return pool != nullptr && !pool->busy() ? pool : nullptr;
}

std::size_t plannedParts(std::size_t work, std::size_t grain,
                         std::size_t limit) {
  const WorkerPool* pool = ParallelScope::current();
  if (pool == nullptr) return 1;
  const std::size_t by_work = work / std::max<std::size_t>(1, grain);
  return std::max<std::size_t>(
      1, std::min({pool->width(), by_work, limit}));
}

}  // namespace posetrl
