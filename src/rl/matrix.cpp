#include "rl/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "rl/matrix_simd.h"

namespace posetrl {

namespace simd {

namespace {

bool cpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdMode modeFromEnv() {
  const char* v = std::getenv("POSETRL_SIMD");
  if (v == nullptr) return SimdMode::Auto;
  if (std::strcmp(v, "scalar") == 0) return SimdMode::Scalar;
  if (std::strcmp(v, "avx2") == 0) {
    POSETRL_CHECK(cpuHasAvx2(), "POSETRL_SIMD=avx2 but CPU lacks AVX2");
    return SimdMode::Avx2;
  }
  POSETRL_CHECK(std::strcmp(v, "auto") == 0,
                "POSETRL_SIMD must be scalar|avx2|auto, got: ", v);
  return SimdMode::Auto;
}

std::atomic<SimdMode>& modeSlot() {
  static std::atomic<SimdMode> mode{modeFromEnv()};
  return mode;
}

}  // namespace

void setSimdMode(SimdMode mode) {
  if (mode == SimdMode::Avx2) {
    POSETRL_CHECK(cpuHasAvx2(), "cannot force AVX2: CPU lacks it");
  }
  modeSlot().store(mode, std::memory_order_relaxed);
}

SimdMode simdMode() { return modeSlot().load(std::memory_order_relaxed); }

bool avx2Active() {
  switch (simdMode()) {
    case SimdMode::Scalar: return false;
    case SimdMode::Avx2: return true;
    case SimdMode::Auto: break;
  }
  static const bool has_avx2 = cpuHasAvx2();
  return has_avx2;
}

}  // namespace simd

Matrix Matrix::randomInit(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double scale = std::sqrt(2.0 / static_cast<double>(cols));
  for (double& x : m.data_) x = rng.nextGaussian() * scale;
  return m;
}

namespace {

/// sum_k x[k]*y[k] in the canonical 16-lane interleaved order (see
/// matrix_simd.h): lane l sums the terms with k ≡ l (mod 16) in ascending
/// k, the tail lands on lanes 0..tail-1, lanes combine pairwise as
/// t_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12}), then (t0+t2)+(t1+t3).
/// Exactly what four AVX2 accumulator registers compute, so the two
/// dispatch paths are bit-identical.
double dotInterleavedScalar(const double* x, const double* y,
                            std::size_t k) {
  const std::size_t k16 = k & ~static_cast<std::size_t>(15);
  double lanes[16] = {0.0};
  for (std::size_t kk = 0; kk < k16; kk += 16) {
    for (std::size_t l = 0; l < 16; ++l) lanes[l] += x[kk + l] * y[kk + l];
  }
  for (std::size_t kk = k16; kk < k; ++kk) lanes[kk - k16] += x[kk] * y[kk];
  double t[4];
  for (int j = 0; j < 4; ++j) {
    t[j] = (lanes[j] + lanes[j + 4]) + (lanes[j + 8] + lanes[j + 12]);
  }
  return (t[0] + t[2]) + (t[1] + t[3]);
}

inline double dotCanonical(const double* x, const double* y, std::size_t k,
                           bool use_avx2) {
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2) return simd::dotInterleavedAvx2(x, y, k);
#else
  (void)use_avx2;
#endif
  return dotInterleavedScalar(x, y, k);
}

/// C[i][j] += dot(A row i, B row j), one canonical dot per cell; the AVX2
/// twin register-tiles the cells without touching any cell's order.
void dotTile(double* c, std::size_t ldc, const double* a, std::size_t lda,
             std::size_t m, const double* b, std::size_t ldb, std::size_t n,
             std::size_t k, bool use_avx2) {
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2) return simd::dotTileAvx2(c, ldc, a, lda, m, b, ldb, n, k);
#else
  (void)use_avx2;
#endif
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += dotInterleavedScalar(a + i * lda, b + j * ldb, k);
    }
  }
}

/// Ordered rank-k update (contract in simd::RankUpdate): every cell of
/// row i adds row i's terms one rounded mul+add at a time, in term order.
void rankK(const simd::RankUpdate& u, bool use_avx2) {
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2) {
    thread_local std::vector<double> panel;
    if (panel.size() < u.k * 32) panel.resize(u.k * 32);
    return simd::rankKAvx2(u, panel.data());
  }
#else
  (void)use_avx2;
#endif
  for (std::size_t i = 0; i < u.m; ++i) {
    double* crow = u.c + i * u.ldc;
    for (std::size_t t = u.start[i]; t < u.start[i + 1]; ++t) {
      const double a = u.terms[t].coef;
      const double* brow = u.b + u.terms[t].row * u.ldb;
      for (std::size_t j = 0; j < u.n; ++j) crow[j] += a * brow[j];
    }
  }
}

}  // namespace

std::vector<double> Matrix::matVec(const std::vector<double>& v,
                                   const std::vector<double>* bias) const {
  POSETRL_CHECK(v.size() == cols_, "matVec dimension mismatch");
  const bool use_avx2 = simd::avx2Active();
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    const double acc = dotCanonical(row, v.data(), cols_, use_avx2);
    out[r] = acc + (bias != nullptr ? (*bias)[r] : 0.0);
  }
  return out;
}

void Matrix::addMatMul(const Matrix& a, bool transpose_a, const Matrix& b,
                       bool transpose_b) {
  POSETRL_CHECK(!(transpose_a && transpose_b),
                "addMatMul: at most one operand may be transposed");
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  const std::size_t kb = transpose_b ? b.cols() : b.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  POSETRL_CHECK(k == kb, "addMatMul inner dimension mismatch: ", k, " vs ",
                kb);
  POSETRL_CHECK(rows_ == m && cols_ == n,
                "addMatMul output shape mismatch: ", rows_, "x", cols_,
                " vs ", m, "x", n);
  const bool use_avx2 = simd::avx2Active();
  if (transpose_b) {
    // C[i][j] += sum_k A[i][k] * B[j][k]: one canonical dot per cell,
    // matching matVec; no term is skipped.
    dotTile(data_.data(), cols_, a.data(), a.cols(), m, b.data(), b.cols(),
            n, k, use_avx2);
    return;
  }
  // C[i][j] += sum_k op(A)[i][k] * B[k][j]: an ordered rank-k update.
  // Each output row's non-zero coefficients are compacted once, in
  // ascending k — the per-sample gradient loops' order and zero-skip. The
  // write is unconditional and the cursor advances only past a non-zero,
  // so ReLU-random zeros cost no branch mispredictions. The term lists
  // live in per-thread scratch that only grows: a fresh allocation of this
  // size would be zeroed and page-faulted on every update.
  const double* pa = a.data();
  const std::size_t lda = a.cols();
  thread_local std::vector<simd::RankTerm> terms;
  thread_local std::vector<std::size_t> start;
  if (terms.size() < m * k + 1) terms.resize(m * k + 1);
  if (start.size() < m + 1) start.resize(m + 1);
  std::size_t count = 0;
  for (std::size_t i = 0; i < m; ++i) {
    start[i] = count;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = transpose_a ? pa[kk * lda + i] : pa[i * lda + kk];
      terms[count] = {av, kk};
      count += av != 0.0 ? 1 : 0;
    }
  }
  start[m] = count;
  rankK({data_.data(), cols_, m, n, b.data(), b.cols(), k, terms.data(),
         start.data()},
        use_avx2);
}

Matrix Matrix::matMul(const Matrix& a, bool transpose_a, const Matrix& b,
                      bool transpose_b) {
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  Matrix c = Matrix::zeros(m, n);
  c.addMatMul(a, transpose_a, b, transpose_b);
  return c;
}

}  // namespace posetrl
