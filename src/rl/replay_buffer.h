#pragma once

/// \file replay_buffer.h
/// Experience replay memory for the DQN agent (Section V-A of the paper:
/// random batches are sampled from the replay memory every µ steps).

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "support/rng.h"

namespace posetrl {

/// One transition (s, a, r, s', done). When `use_mc` is set, `mc_return`
/// carries the full discounted return observed from this state to the end
/// of its episode (Monte-Carlo target) — a sample-efficient alternative to
/// bootstrapped TD targets in deterministic environments.
struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool done = false;
  double mc_return = 0.0;
  bool use_mc = false;
};

/// Walks \p episode backwards attaching discounted reward-to-go returns
/// (Monte-Carlo targets): mc_return[i] = reward[i] + gamma * mc_return[i+1],
/// and sets use_mc on every transition. Shared by the sequential trainer,
/// the parallel actor–learner, and the online serving ingest path so all
/// three produce identical replay payloads for identical episodes.
void annotateMonteCarloReturns(std::vector<Transition>& episode, double gamma);

/// Fixed-capacity ring buffer with uniform random sampling.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {}

  void push(Transition t);
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// The \p i-th stored transition (storage order, not insertion order).
  const Transition& at(std::size_t i) const;

  /// Samples \p n transitions uniformly with replacement. Raises a
  /// recoverable FatalError when the buffer is empty (callers gate on the
  /// warmup threshold, so an empty sample is a caller bug worth containing,
  /// not worth aborting a long training run for).
  std::vector<const Transition*> sample(std::size_t n, Rng& rng) const;

  /// Serializes the full buffer (contents and ring cursor) for crash-safe
  /// trainer checkpoints. load() raises FatalError on a header/capacity
  /// mismatch or a truncated payload.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<Transition> items_;
};

/// Replay memory for the parallel actor–learner trainer: K independently
/// mutex-guarded ReplayBuffer shards. Each rollout actor owns one shard
/// (shard = actor index) and appends its finished episodes under that
/// shard's lock only, so actors never contend with each other.
///
/// Determinism contract: sample() maps draws onto (shard, slot) via shard
/// prefix sums, so given identical shard contents it returns identical
/// transitions regardless of how thread scheduling interleaved the pushes
/// that produced those contents. The learner must only call sample() at a
/// sync point (no concurrent pushEpisode), both for that contract and
/// because returned pointers are invalidated by later ring overwrites.
class ShardedReplayBuffer {
 public:
  ShardedReplayBuffer(std::size_t num_shards, std::size_t shard_capacity);

  std::size_t numShards() const { return shards_.size(); }
  std::size_t shardSize(std::size_t shard) const;
  /// Total transitions held, summed across shards.
  std::size_t size() const;

  /// Appends \p episode to \p shard in order, under that shard's lock.
  void pushEpisode(std::size_t shard, std::vector<Transition> episode);

  /// Read access to one shard's underlying buffer (e.g. to serialize it for
  /// a recovery-equivalence check). Sync points only, like sample().
  const ReplayBuffer& shard(std::size_t i) const;

  /// Samples \p n transitions uniformly with replacement across all
  /// shards. Sync points only — see the class comment. Raises FatalError
  /// when every shard is empty.
  std::vector<const Transition*> sample(std::size_t n, Rng& rng) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    ReplayBuffer buf;
    explicit Shard(std::size_t capacity) : buf(capacity) {}
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace posetrl
