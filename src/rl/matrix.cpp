#include "rl/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "rl/matrix_simd.h"
#include "support/parallel.h"

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

/// Multiply-adds per part below which a product is not worth forking: at
/// about 10 GMAC/s that is a few microseconds of work, against about one
/// for the fork and join of spinning helpers.
constexpr std::size_t kGemmGrain = std::size_t{1} << 16;

/// Per-thread term lists of an ordered rank-k update. They only grow: a
/// fresh allocation of this size would be zeroed and page-faulted on every
/// update.
struct RankScratch {
  std::vector<simd::RankTerm> terms;
  std::vector<std::size_t> start;
};

RankScratch& rankScratch() {
  thread_local RankScratch scratch;
  return scratch;
}

/// Compacts the non-zero coefficients of op(A) rows [i0, i1) over k, in
/// ascending k, into \p s (rows renumbered from 0). The write is
/// unconditional and the cursor advances only past a non-zero, so
/// ReLU-random zeros cost no branch mispredictions.
void compactTerms(const double* pa, std::size_t lda, bool transpose_a,
                  std::size_t i0, std::size_t i1, std::size_t k,
                  RankScratch& s) {
  const std::size_t rows = i1 - i0;
  if (s.terms.size() < rows * k + 1) s.terms.resize(rows * k + 1);
  if (s.start.size() < rows + 1) s.start.resize(rows + 1);
  std::size_t count = 0;
  for (std::size_t i = i0; i < i1; ++i) {
    s.start[i - i0] = count;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = transpose_a ? pa[kk * lda + i] : pa[i * lda + kk];
      s.terms[count] = {av, kk};
      count += av != 0.0 ? 1 : 0;
    }
  }
  s.start[rows] = count;
}

/// Applies \p e to C's block [i0, i1) x [j0, j1).
void applyEpilogue(const GemmEpilogue& e, double* c, std::size_t ldc,
                   std::size_t i0, std::size_t i1, std::size_t j0,
                   std::size_t j1) {
  if (e.bias == nullptr && !e.relu && e.mask == nullptr) return;
  for (std::size_t i = i0; i < i1; ++i) {
    double* row = c + i * ldc;
    if (e.bias != nullptr) {
      const double* bias = e.bias->data();
      for (std::size_t j = j0; j < j1; ++j) row[j] += bias[j];
    }
    if (e.relu) {
      for (std::size_t j = j0; j < j1; ++j) {
        row[j] = keepIf(row[j] > 0.0, row[j]);
      }
    }
    if (e.mask != nullptr) {
      const double* mrow = e.mask->data() + i * e.mask->cols();
      for (std::size_t j = j0; j < j1; ++j) {
        row[j] = keepIf(!(mrow[j] <= 0.0), row[j]);
      }
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
                       bool transpose_b, const GemmEpilogue& epilogue) {
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
  POSETRL_CHECK(epilogue.bias == nullptr || epilogue.bias->size() == n,
                "addMatMul bias width mismatch");
  POSETRL_CHECK(epilogue.mask == nullptr || (epilogue.mask->rows() == m &&
                                             epilogue.mask->cols() == n),
                "addMatMul mask shape mismatch");
  // Every check is above: parts never throw, so a fork always joins whole.
  const bool use_avx2 = simd::avx2Active();
  double* c = data_.data();
  const double* pa = a.data();
  const std::size_t lda = a.cols();
  if (transpose_b) {
    // C[i][j] += sum_k A[i][k] * B[j][k]: one canonical dot per cell,
    // matching matVec; no term is skipped. A part owns a range of output
    // columns — rows of B, whole 1x3 tiles — and streams only its slice.
    const std::size_t parts =
        plannedParts(m * k * n, kGemmGrain, (n + 2) / 3);
    forkJoin(parts, [&](std::size_t p) {
      const std::size_t j0 = splitPoint(n, parts, p, 3);
      const std::size_t j1 = splitPoint(n, parts, p + 1, 3);
      dotTile(c + j0, cols_, pa, lda, m, b.data() + j0 * b.cols(), b.cols(),
              j1 - j0, k, use_avx2);
      applyEpilogue(epilogue, c, cols_, 0, m, j0, j1);
    });
    return;
  }
  // C[i][j] += sum_k op(A)[i][k] * B[k][j]: an ordered rank-k update over
  // each row's non-zero coefficients, compacted in ascending k (the
  // per-sample gradient loops' order and zero-skip).
  if (transpose_a) {
    // The weight gradient: a part owns a range of output rows and compacts
    // their terms itself, into its own thread's scratch.
    const std::size_t parts = plannedParts(m * k * n, kGemmGrain, m);
    forkJoin(parts, [&](std::size_t p) {
      const std::size_t i0 = splitPoint(m, parts, p, 1);
      const std::size_t i1 = splitPoint(m, parts, p + 1, 1);
      RankScratch& s = rankScratch();
      compactTerms(pa, lda, true, i0, i1, k, s);
      rankK({c + i0 * cols_, cols_, i1 - i0, n, b.data(), b.cols(), k,
             s.terms.data(), s.start.data()},
            use_avx2);
      applyEpilogue(epilogue, c, cols_, i0, i1, 0, n);
    });
    return;
  }
  // The input gradient (few rows, many columns): compact every row once,
  // here, then let each part own a range of 32-column strips.
  RankScratch& s = rankScratch();
  compactTerms(pa, lda, false, 0, m, k, s);
  const std::size_t parts =
      plannedParts(s.start[m] * n, kGemmGrain, (n + 31) / 32);
  forkJoin(parts, [&](std::size_t p) {
    const std::size_t j0 = splitPoint(n, parts, p, 32);
    const std::size_t j1 = splitPoint(n, parts, p + 1, 32);
    rankK({c + j0, cols_, m, j1 - j0, b.data() + j0, b.cols(), k,
           s.terms.data(), s.start.data()},
          use_avx2);
    applyEpilogue(epilogue, c, cols_, 0, m, j0, j1);
  });
}

Matrix Matrix::matMul(const Matrix& a, bool transpose_a, const Matrix& b,
                      bool transpose_b, const GemmEpilogue& epilogue) {
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  Matrix c = Matrix::zeros(m, n);
  c.addMatMul(a, transpose_a, b, transpose_b, epilogue);
  return c;
}

}  // namespace posetrl
