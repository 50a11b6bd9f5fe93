#include "rl/dqn.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "support/error.h"

namespace posetrl {

namespace {

std::vector<std::size_t> layerSizes(const DqnConfig& c) {
  std::vector<std::size_t> sizes{c.state_dim};
  for (std::size_t h : c.hidden) sizes.push_back(h);
  sizes.push_back(c.num_actions);
  return sizes;
}

}  // namespace

std::size_t maskedArgmax(std::span<const double> q,
                         const std::vector<bool>* blocked) {
  POSETRL_CHECK(blocked == nullptr || blocked->size() == q.size(),
                "mask width must match the Q-vector");
  std::size_t best = q.size();
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (blocked != nullptr && (*blocked)[i]) continue;
    if (best == q.size() || q[i] > q[best]) best = i;
  }
  POSETRL_CHECK(best < q.size(), "all actions blocked");
  return best;
}

std::size_t epsilonGreedy(const Mlp& net, const std::vector<double>& state,
                          const std::vector<bool>* blocked, double eps,
                          Rng& rng) {
  if (!rng.nextBool(eps)) return maskedArgmax(net.forward(state), blocked);
  std::vector<std::size_t> allowed;
  for (std::size_t i = 0; i < net.outputSize(); ++i) {
    if (blocked == nullptr || !(*blocked)[i]) allowed.push_back(i);
  }
  POSETRL_CHECK(!allowed.empty(), "all actions blocked");
  return allowed[rng.nextBelow(allowed.size())];
}

DoubleDqn::DoubleDqn(const DqnConfig& config)
    : config_(config),
      rng_(config.seed),
      online_(layerSizes(config), rng_),
      target_(layerSizes(config), rng_),
      replay_(config.replay_capacity) {
  target_.copyParametersFrom(online_);
}

double DoubleDqn::epsilon() const {
  // Exact endpoints: step 0 is epsilon_start, step epsilon_decay_steps (and
  // beyond) is epsilon_end — not merely within rounding of them.
  if (steps_ == 0) return config_.epsilon_start;
  if (steps_ >= config_.epsilon_decay_steps) return config_.epsilon_end;
  const double progress = static_cast<double>(steps_) /
                          static_cast<double>(config_.epsilon_decay_steps);
  return config_.epsilon_start +
         (config_.epsilon_end - config_.epsilon_start) * progress;
}

std::size_t DoubleDqn::warmupThreshold() const {
  const std::size_t floor_ = config_.min_replay_size > 0
                                 ? config_.min_replay_size
                                 : config_.learn_start;
  return std::max(floor_, config_.batch_size);
}

std::size_t DoubleDqn::act(const std::vector<double>& state, bool explore,
                           const std::vector<bool>* blocked) {
  if (!explore) return actGreedy(state, blocked);
  // Count this step before reading ε, so the decay position matches the
  // step counter: the step that moves the counter to epsilon_decay_steps
  // draws with exactly epsilon_end. (Reading first lagged the schedule by
  // one step, and the annealed floor was never actually used.)
  ++steps_;
  return epsilonGreedy(online_, state, blocked, epsilon(), rng_);
}

std::size_t DoubleDqn::actGreedy(const std::vector<double>& state,
                                 const std::vector<bool>* blocked) const {
  return maskedArgmax(online_.forward(state), blocked);
}

std::vector<double> DoubleDqn::qValues(
    const std::vector<double>& state) const {
  return online_.forward(state);
}

void DoubleDqn::observe(Transition t) {
  replay_.push(std::move(t));
  if (replay_.size() < warmupThreshold()) return;
  if (steps_ % config_.train_every == 0) trainBatch();
  if (updates_ > 0 && updates_ % config_.target_sync_every == 0) {
    target_.copyParametersFrom(online_);
  }
}

void DoubleDqn::trainBatch() {
  const auto batch = replay_.sample(config_.batch_size, rng_);
  updateFromBatch(batch);
}

double DoubleDqn::trainOnBatch(const std::vector<const Transition*>& batch) {
  POSETRL_CHECK(!batch.empty(), "trainOnBatch on an empty batch");
  const double loss = updateFromBatch(batch);
  // The sequential loop syncs from observe(); here the learner owns the
  // cadence, so sync as soon as the update counter crosses the interval.
  if (updates_ % config_.target_sync_every == 0) {
    target_.copyParametersFrom(online_);
  }
  return loss;
}

/// One gradient step over \p batch. Batched: the whole minibatch runs as
/// one GEMM per layer (forward, backward, and the Double-DQN target
/// forwards) instead of batch_size matVec chains — bit-identical to the
/// former per-sample loop because Matrix::matMul preserves per-cell
/// accumulation order.
double DoubleDqn::updateFromBatch(
    const std::vector<const Transition*>& batch) {
  const std::size_t n = batch.size();
  Matrix states(n, config_.state_dim);
  std::vector<std::size_t> actions(n);
  std::vector<double> targets(n, 0.0);

  // Bootstrapped (non-MC, non-terminal) samples need next-state Q-values
  // from both networks; batch those forwards too.
  std::vector<std::size_t> boot;  // indices into `batch`
  boot.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = *batch[i];
    POSETRL_CHECK(t.state.size() == config_.state_dim,
                  "transition state width mismatch");
    std::copy(t.state.begin(), t.state.end(),
              states.data() + i * config_.state_dim);
    actions[i] = t.action;
    if (t.use_mc) {
      targets[i] = t.mc_return;
    } else {
      targets[i] = t.reward;
      if (!t.done) boot.push_back(i);
    }
  }
  if (!boot.empty()) {
    Matrix next_states(boot.size(), config_.state_dim);
    for (std::size_t b = 0; b < boot.size(); ++b) {
      const std::vector<double>& ns = batch[boot[b]]->next_state;
      POSETRL_CHECK(ns.size() == config_.state_dim,
                    "transition next-state width mismatch");
      std::copy(ns.begin(), ns.end(),
                next_states.data() + b * config_.state_dim);
    }
    // Double DQN: the online net selects the best next action; the target
    // net evaluates it.
    const Matrix online_q = online_.forwardBatch(next_states);
    const Matrix target_q = target_.forwardBatch(next_states);
    for (std::size_t b = 0; b < boot.size(); ++b) {
      const std::size_t best = maskedArgmax(
          {online_q.data() + b * online_q.cols(), online_q.cols()}, nullptr);
      targets[boot[b]] += config_.gamma * target_q.at(b, best);
    }
  }
  const double loss = online_.accumulateGradientBatch(states, actions, targets);
  online_.adamStep(config_.lr, n);
  last_loss_ = loss / static_cast<double>(n);
  ++updates_;
  return last_loss_;
}

void DoubleDqn::saveModel(std::ostream& os) const { online_.save(os); }

void DoubleDqn::loadModel(std::istream& is) {
  online_.load(is);
  target_.copyParametersFrom(online_);
}

void DoubleDqn::saveCheckpoint(std::ostream& os) const {
  // v2: the ε-schedule reads its position after the step counter advances
  // (see act()). A v1 checkpoint resumed under v2 semantics would draw
  // exploration with different ε values and silently diverge from its
  // original run, so v1 payloads are rejected rather than reinterpreted.
  os << "dqn-ckpt v2 " << steps_ << " " << updates_ << " ";
  os.precision(17);
  os << last_loss_ << "\n";
  rng_.save(os);
  online_.saveState(os);
  target_.save(os);
  replay_.save(os);
}

void DoubleDqn::loadCheckpoint(std::istream& is) {
  std::string tag, version;
  is >> tag >> version >> steps_ >> updates_ >> last_loss_;
  POSETRL_CHECK(tag == "dqn-ckpt", "bad DQN checkpoint header");
  POSETRL_CHECK(version != "v1",
                "dqn-ckpt v1 predates the ε-schedule fix and cannot resume "
                "bit-exactly; restart training to produce a v2 checkpoint");
  POSETRL_CHECK(version == "v2", "bad DQN checkpoint version: ", version);
  rng_.load(is);
  online_.loadState(is);
  target_.load(is);
  replay_.load(is);
  POSETRL_CHECK(static_cast<bool>(is), "truncated DQN checkpoint");
}

}  // namespace posetrl
