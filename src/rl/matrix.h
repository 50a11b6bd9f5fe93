#pragma once

/// \file matrix.h
/// Minimal dense row-major matrix used by the neural-network layers. The
/// paper's agent is a small MLP, so register-blocked kernels with no BLAS
/// dependency are sufficient; they dispatch to AVX2 at runtime
/// (rl/matrix_simd.h) with a scalar twin that reduces in the exact same
/// order, keeping training traces bit-identical across machines.

#include <cstddef>
#include <vector>

#include "support/error.h"
#include "support/rng.h"

namespace posetrl {

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

  /// C = op(A) * op(B), where op(X) is X or X^T; the batched MLP paths use
  /// it so a minibatch costs one GEMM per layer instead of batch_size
  /// matVec calls. The result is bit-identical under either dispatch path
  /// (rl/matrix_simd.h), because each shape keeps one canonical order per
  /// output cell:
  ///  - A * B^T (the forward pass) reduces every cell as matVec does: the
  ///    16-lane interleaved dot, every term added, zeros included, so a
  ///    batched forward row equals a matVec row bit for bit.
  ///  - A * B and A^T * B (the input and weight gradients) add the terms of
  ///    each cell one rounded mul+add at a time in ascending k, skipping
  ///    every zero coefficient of op(A) — exactly the loops of
  ///    Mlp::accumulateGradient, so a batched update equals the per-sample
  ///    one (the single-actor trainer's checkpoint bytes depend on this).
  /// transpose_a and transpose_b must not both be set.
  static Matrix matMul(const Matrix& a, bool transpose_a, const Matrix& b,
                       bool transpose_b);

  /// this += op(A) * op(B) (same contract as matMul). Used for gradient
  /// accumulation, where the product lands on top of existing gradients.
  void addMatMul(const Matrix& a, bool transpose_a, const Matrix& b,
                 bool transpose_b);

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace posetrl
