#include "rl/replay_buffer.h"

#include <istream>
#include <ostream>
#include <string>

#include "support/error.h"

namespace posetrl {

void annotateMonteCarloReturns(std::vector<Transition>& episode, double gamma) {
  double g = 0.0;
  for (auto it = episode.rbegin(); it != episode.rend(); ++it) {
    g = it->reward + gamma * g;
    it->mc_return = g;
    it->use_mc = true;
  }
}

void ReplayBuffer::push(Transition t) {
  if (items_.size() < capacity_) {
    items_.push_back(std::move(t));
  } else {
    items_[next_] = std::move(t);
    next_ = (next_ + 1) % capacity_;
  }
}

const Transition& ReplayBuffer::at(std::size_t i) const {
  POSETRL_CHECK(i < items_.size(), "replay index out of range: ", i);
  return items_[i];
}

std::vector<const Transition*> ReplayBuffer::sample(std::size_t n,
                                                    Rng& rng) const {
  if (items_.empty()) raiseError("sampling from empty replay buffer");
  std::vector<const Transition*> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(&items_[rng.nextBelow(items_.size())]);
  }
  return out;
}

namespace {

void saveVec(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (double x : v) os << " " << x;
}

void loadVec(std::istream& is, std::vector<double>& v) {
  std::size_t n = 0;
  is >> n;
  POSETRL_CHECK(n <= (1u << 24), "implausible vector length in replay state");
  v.resize(n);
  for (double& x : v) is >> x;
}

}  // namespace

void ReplayBuffer::save(std::ostream& os) const {
  os << "replay " << capacity_ << " " << items_.size() << " " << next_
     << "\n";
  os.precision(17);
  for (const Transition& t : items_) {
    saveVec(os, t.state);
    os << " " << t.action << " " << t.reward << " ";
    saveVec(os, t.next_state);
    os << " " << (t.done ? 1 : 0) << " " << t.mc_return << " "
       << (t.use_mc ? 1 : 0) << "\n";
  }
}

void ReplayBuffer::load(std::istream& is) {
  std::string tag;
  std::size_t capacity = 0, size = 0;
  is >> tag >> capacity >> size >> next_;
  // Corrupt or mismatched replay state is recoverable-I/O territory: raise
  // instead of aborting so callers (checkpoint loaders, tests) can contain
  // it like any other bad file.
  if (tag != "replay") raiseError("bad replay buffer header: " + tag);
  if (capacity != capacity_) {
    raiseError("replay capacity mismatch on load: " +
               std::to_string(capacity) + " vs " + std::to_string(capacity_));
  }
  if (size > capacity) raiseError("replay size exceeds capacity");
  items_.clear();
  items_.resize(size);
  for (Transition& t : items_) {
    int done = 0, use_mc = 0;
    loadVec(is, t.state);
    is >> t.action >> t.reward;
    loadVec(is, t.next_state);
    is >> done >> t.mc_return >> use_mc;
    t.done = done != 0;
    t.use_mc = use_mc != 0;
  }
  if (!is) raiseError("truncated replay buffer payload");
}

ShardedReplayBuffer::ShardedReplayBuffer(std::size_t num_shards,
                                         std::size_t shard_capacity) {
  POSETRL_CHECK(num_shards > 0, "sharded replay needs at least one shard");
  POSETRL_CHECK(shard_capacity > 0, "shard capacity must be positive");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity));
  }
}

std::size_t ShardedReplayBuffer::shardSize(std::size_t shard) const {
  POSETRL_CHECK(shard < shards_.size(), "shard index out of range");
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->buf.size();
}

const ReplayBuffer& ShardedReplayBuffer::shard(std::size_t i) const {
  POSETRL_CHECK(i < shards_.size(), "shard index out of range");
  return shards_[i]->buf;
}

std::size_t ShardedReplayBuffer::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->buf.size();
  }
  return total;
}

void ShardedReplayBuffer::pushEpisode(std::size_t shard,
                                      std::vector<Transition> episode) {
  POSETRL_CHECK(shard < shards_.size(), "shard index out of range");
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  for (Transition& t : episode) shards_[shard]->buf.push(std::move(t));
}

std::vector<const Transition*> ShardedReplayBuffer::sample(std::size_t n,
                                                           Rng& rng) const {
  // Snapshot shard sizes (and build prefix sums) under the locks, then map
  // each draw to (shard, slot). At a sync point the sizes cannot change
  // between the snapshot and the at() reads below.
  std::vector<std::size_t> prefix(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    prefix[i + 1] = prefix[i] + shards_[i]->buf.size();
  }
  const std::size_t total = prefix.back();
  if (total == 0) raiseError("sampling from empty sharded replay buffer");
  std::vector<const Transition*> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t idx = rng.nextBelow(total);
    std::size_t shard = 0;
    while (idx >= prefix[shard + 1]) ++shard;
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    out.push_back(&shards_[shard]->buf.at(idx - prefix[shard]));
  }
  return out;
}

}  // namespace posetrl
