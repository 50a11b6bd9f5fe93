#pragma once

/// \file embed_cache.h
/// Content-hash cache in front of Embedder::embedProgram. Computing the
/// 300-dim program embedding walks every instruction through several flow
/// rounds. On e2ebench's traced `train` run (seed 1, 4-core x86-64 VM),
/// with this cache serving 21% of steps, embedding averages 120-136 us of
/// a 634-655 us env step, about a fifth. Many steps leave the module
/// textually unchanged — no-op sub-sequences on already-clean IR,
/// sandbox rollbacks after contained faults, and every reset() back to the
/// pristine clone. Those repeats hash to a previously embedded state and
/// skip embedProgram entirely.
///
/// Keying: the structural content hash (ir/structural_hash.h), a single
/// allocation-free walk covering everything the printer serializes — two
/// modules that print identically embed identically, and hash identically.
/// Collisions require two *different* contents sharing a 64-bit hash —
/// negligible against the few thousand states one environment visits.
/// Callers that can prove the module unchanged since the last key (the
/// environment's content-stamp memo) can skip even that walk via the
/// *Keyed entry points, making repeat lookups O(1).

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "embed/embedder.h"

namespace posetrl {

class Module;

struct EmbedCacheConfig {
  /// Retained embeddings (LRU eviction). An episode revisits at most a few
  /// dozen states, and one 300-dim embedding is 2.4 KB, so small is plenty.
  std::size_t capacity = 64;
};

struct EmbedCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
};

/// LRU cache of program embeddings, keyed by module content hash. Owned by
/// one PhaseOrderEnv (and thus one rollout actor at a time) — not
/// internally synchronized.
class EmbedCache {
 public:
  explicit EmbedCache(EmbedCacheConfig config = {});

  /// Stable content hash of \p m (structural walk; never prints).
  static std::uint64_t moduleHash(const Module& m);

  /// embedProgram(m) through the cache. The returned reference stays valid
  /// until the entry is evicted or clear() is called.
  const Embedding& embed(const Module& m, const Embedder& embedder);

  /// Like embed(), but with a caller-provided key (must equal
  /// moduleHash(m); typically served from a content-stamp memo).
  const Embedding& embedKeyed(std::uint64_t key, const Module& m,
                              const Embedder& embedder);

  /// Generic variant: any deterministic state extractor (e.g. the static
  /// feature vector, analysis/static_features.h) can sit behind the same
  /// content-hash LRU. \p compute runs only on a miss. One cache instance
  /// must serve a single extractor — keys are module hashes, not
  /// (module, extractor) pairs.
  template <typename Compute>
  const Embedding& embedWith(const Module& m, Compute&& compute) {
    return embedWithKeyed(moduleHash(m), m, std::forward<Compute>(compute));
  }

  /// Keyed variant of embedWith (same key contract as embedKeyed).
  template <typename Compute>
  const Embedding& embedWithKeyed(std::uint64_t key, const Module& m,
                                  Compute&& compute) {
    if (const Embedding* hit = lookup(key)) return *hit;
    return insert(key, compute(m));
  }

  const EmbedCacheStats& stats() const { return stats_; }
  std::size_t size() const { return lru_.size(); }
  void clear();

 private:
  using Entry = std::pair<std::uint64_t, Embedding>;

  /// Cache probe: returns the entry (marked most-recent) or nullptr.
  const Embedding* lookup(std::uint64_t key);
  /// Inserts a freshly computed value, evicting the LRU tail if needed.
  const Embedding& insert(std::uint64_t key, Embedding value);

  EmbedCacheConfig config_;
  EmbedCacheStats stats_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace posetrl
