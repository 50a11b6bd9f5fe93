#pragma once

/// \file mlp.h
/// Fully-connected ReLU network with Adam — the Q-function approximator of
/// the paper's Double DQN agent. Supports single-output-head regression
/// training (Q-learning updates touch one action's head per sample) with
/// Huber loss, gradient accumulation over minibatches, target-network
/// cloning, and text serialization.

#include <iosfwd>
#include <vector>

#include "rl/matrix.h"
#include "support/rng.h"

namespace posetrl {

/// Multi-layer perceptron: Linear -> ReLU -> ... -> Linear.
class Mlp {
 public:
  /// \p sizes = {input, hidden..., output}.
  Mlp(const std::vector<std::size_t>& sizes, Rng& rng);

  std::size_t outputSize() const { return sizes_.back(); }

  /// Forward pass. Pure const (no scratch buffers on the object), so
  /// concurrent forward() calls on one network are safe as long as no
  /// thread is mutating the parameters.
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Batched forward: each row of \p x is one input; returns one output row
  /// per input. One GEMM per layer, and bit-identical per row to forward()
  /// (Matrix::matMul preserves the matVec accumulation order). Same const
  /// thread-safety contract as forward().
  Matrix forwardBatch(const Matrix& x) const;

  /// Accumulates gradients for regressing output \p action toward
  /// \p target under Huber loss (delta = 1). Returns the absolute TD error.
  double accumulateGradient(const std::vector<double>& x, std::size_t action,
                            double target);

  /// Batched gradient accumulation: row i of \p x regresses head
  /// actions[i] toward targets[i]. One GEMM per layer for the weight
  /// gradients and one for each backpropagated activation gradient, and
  /// bit-identical to calling accumulateGradient() row by row (every
  /// gradient cell receives its per-sample terms in the same order), at
  /// any learner-pool width. \p x is read in place, never copied.
  /// Returns the summed absolute TD errors.
  double accumulateGradientBatch(const Matrix& x,
                                 const std::vector<std::size_t>& actions,
                                 const std::vector<double>& targets);

  /// Applies one Adam step using the accumulated gradients (averaged over
  /// \p batch_size) and clears them. Under a ParallelScope
  /// (support/parallel.h) the whole network is one fork: every layer's
  /// weights and biases form one element run cut into ranges.
  void adamStep(double lr, std::size_t batch_size);

  /// Copies all parameters from \p other (target-network sync).
  void copyParametersFrom(const Mlp& other);

  /// Turns the network into a constant function: zeroes every weight and
  /// bias and sets the output-layer bias to \p output, so forward() returns
  /// \p output for any input. A pinned policy like this is how the online
  /// learning tests and smokes inject a known-bad candidate (one that always
  /// greedily picks a chosen — e.g. fault-injecting — action) to exercise
  /// the canary gate and the post-promotion rollback watchdog.
  void setConstantOutput(const std::vector<double>& output);

  /// Parameter count (for tests/reporting).
  std::size_t parameterCount() const;

  void save(std::ostream& os) const;
  /// Loads parameters saved by save(); the architecture must match.
  void load(std::istream& is);

  /// Full-state serialization for crash-safe checkpoints: weights, biases,
  /// Adam first/second moments and the Adam step counter, so a restored
  /// network continues training bit-exactly. (save()/load() above only carry
  /// the inference parameters.)
  void saveState(std::ostream& os) const;
  void loadState(std::istream& is);

 private:
  struct Layer {
    Matrix w;
    std::vector<double> b;
    // Accumulated gradients.
    Matrix gw;
    std::vector<double> gb;
    // Adam first/second moments.
    Matrix mw, vw;
    std::vector<double> mb, vb;
  };

  std::vector<std::size_t> sizes_;
  std::vector<Layer> layers_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace posetrl
