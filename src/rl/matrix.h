#pragma once

/// \file matrix.h
/// Minimal dense row-major matrix used by the neural-network layers. The
/// paper's agent is a small MLP, so register-blocked kernels with no BLAS
/// dependency are sufficient; they dispatch to AVX2 at runtime
/// (rl/matrix_simd.h) with a scalar twin that reduces in the exact same
/// order, keeping training traces bit-identical across machines.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"
#include "support/rng.h"

namespace posetrl {

/// cond ? x : +0.0, without a branch: ReLU signs are data-random, so a
/// branch on them mispredicts about half the time. relu(x) is
/// keepIf(x > 0.0, x), which equals std::max(0.0, x) for every x, NaN and
/// -0.0 included.
inline double keepIf(bool cond, double x) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) &
                               (std::uint64_t{0} - cond));
}

class Matrix;

/// Per-cell work fused into a product (see Matrix::matMul), applied to each
/// cell once its product is final, in this order:
///   bias: c += (*bias)[j];  relu: c = keepIf(c > 0, c);
///   mask: c = keepIf(!(mask(i, j) <= 0), c)   (the ReLU backward mask).
struct GemmEpilogue {
  const std::vector<double>* bias = nullptr;
  bool relu = false;
  const Matrix* mask = nullptr;
};

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }

  /// Kaiming-style initialization for ReLU networks.
  static Matrix randomInit(std::size_t rows, std::size_t cols, Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t r, std::size_t c) {
    POSETRL_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    POSETRL_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// out = this (rows x cols) * v (cols) + bias (rows, optional).
  std::vector<double> matVec(const std::vector<double>& v,
                             const std::vector<double>* bias) const;

  /// C = op(A) * op(B), where op(X) is X or X^T, then \p epilogue; the
  /// batched MLP paths use it so a minibatch costs one GEMM per layer
  /// instead of batch_size matVec calls. The result is bit-identical under
  /// either dispatch path (rl/matrix_simd.h) and at any pool width
  /// (support/parallel.h), because each shape keeps one canonical order per
  /// output cell and every cell is computed whole by one thread:
  ///  - A * B^T (the forward pass) reduces every cell as matVec does: the
  ///    16-lane interleaved dot, every term added, zeros included, so a
  ///    batched forward row equals a matVec row bit for bit. Under a
  ///    ParallelScope the output columns (rows of B) split across the pool
  ///    in multiples of the 1x3 register tile.
  ///  - A * B and A^T * B (the input and weight gradients) add the terms of
  ///    each cell one rounded mul+add at a time in ascending k, skipping
  ///    every zero coefficient of op(A) — exactly the loops of
  ///    Mlp::accumulateGradient, so a batched update equals the per-sample
  ///    one (the single-actor trainer's checkpoint bytes depend on this).
  ///    Under a ParallelScope, A^T * B splits by output row (each part
  ///    compacts its own rows' terms) and A * B by 32-column strip.
  /// Without a scope, or when the product is too small to pay for a fork,
  /// the whole product runs on the calling thread.
  /// transpose_a and transpose_b must not both be set.
  static Matrix matMul(const Matrix& a, bool transpose_a, const Matrix& b,
                       bool transpose_b, const GemmEpilogue& epilogue = {});

  /// this += op(A) * op(B), then \p epilogue (same contract as matMul).
  /// Used for gradient accumulation, where the product lands on top of
  /// existing gradients.
  void addMatMul(const Matrix& a, bool transpose_a, const Matrix& b,
                 bool transpose_b, const GemmEpilogue& epilogue = {});

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace posetrl
