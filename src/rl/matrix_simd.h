#pragma once

/// \file matrix_simd.h
/// Runtime-dispatched SIMD kernels behind Matrix's GEMM/matVec hot loops.
///
/// Bit-identity contract: every kernel here computes the *canonical
/// reduction order* its scalar twin in matrix.cpp computes. There are two
/// orders, one per product shape:
///
///  - Dot products (matVec and the A·Bᵀ forward GEMM) reduce in sixteen
///    interleaved lanes: lane l sums the terms with k ≡ l mod 16, in
///    ascending k; tail terms land on lanes 0..tail-1; lanes combine as
///    t_j = (l_j + l_{j+4}) + (l_{j+8} + l_{j+12}) for j in 0..3, then
///    (t0+t2)+(t1+t3). Sixteen lanes = four independent AVX2 accumulator
///    registers per output cell. No term is skipped: a skipped 0·w differs
///    from an added one when w is not finite.
///  - Ordered rank-k updates (the Gᵀ·X weight gradient and the G·W input
///    gradient) add one individually rounded mul and one rounded add per
///    term onto the output cell, in ascending k, and skip every term whose
///    coefficient is zero — exactly the per-sample loops of
///    Mlp::accumulateGradient.
///
/// IEEE-754 doubles make each of those orders deterministic, so
/// forced-scalar and forced-AVX2 runs produce byte-identical training
/// traces. The AVX2 kernels only re-tile the *cells* (which outputs share a
/// load, which panel stays in L1); a cell's own sequence of roundings never
/// changes. The same holds across threads: Matrix::addMatMul hands each
/// learner-pool part (support/parallel.h) a block of whole cells — a range
/// of columns or rows — and calls these kernels on it, so no cell's terms
/// are ever split between threads and every pool width gives the same
/// bytes. The AVX2 translation unit is compiled with -mno-fma
/// -ffp-contract=off: a fused multiply-add would skip the intermediate
/// rounding the scalar path performs and silently break the contract.
///
/// Dispatch: SimdMode::Auto (the default) uses AVX2 when the CPU supports
/// it. The POSETRL_SIMD environment variable (scalar|avx2|auto, read once)
/// or setSimdMode() force a path — tests use this to compare both.

#include <cstddef>

namespace posetrl::simd {

enum class SimdMode {
  Auto,    ///< AVX2 if the CPU has it, scalar otherwise.
  Scalar,  ///< Force the scalar kernels.
  Avx2,    ///< Force AVX2 (checked against CPU support).
};

/// Overrides the dispatch mode (thread-safe; affects subsequent calls).
/// Forcing Avx2 on a CPU without it is a checked error.
void setSimdMode(SimdMode mode);
SimdMode simdMode();

/// True when the current mode resolves to the AVX2 kernels.
bool avx2Active();

/// Adam hyper-parameters shared by the scalar twin (mlp.cpp) and the AVX2
/// kernel below; defined once so the twins cannot drift apart.
inline constexpr double kAdamBeta1 = 0.9;
inline constexpr double kAdamBeta2 = 0.999;
inline constexpr double kAdamEps = 1e-8;

/// One non-zero term of an ordered rank-k update: coef times row `row` of B.
struct RankTerm {
  double coef;
  std::size_t row;
};

/// An ordered rank-k update of the m×n row-major C (row stride ldc) from
/// the k×n row-major B (row stride ldb): row i's terms are
/// terms[start[i]] .. terms[start[i+1]-1], and for every column j
///   C[i][j] = (...(C[i][j] + t0.coef·B[t0.row][j]) + t1.coef·B[t1.row][j])...
/// in term order, each term one rounded mul and one rounded add.
struct RankUpdate {
  double* c;
  std::size_t ldc, m, n;
  const double* b;
  std::size_t ldb, k;
  const RankTerm* terms;
  const std::size_t* start;
};

#if defined(__x86_64__) || defined(_M_X64)
/// sum_k x[k]*y[k] in the canonical 16-lane interleaved order.
double dotInterleavedAvx2(const double* x, const double* y, std::size_t k);
/// C[i][j] += dot(A row i, B row j) for i < m, j < n, each dot over k
/// terms in the canonical 16-lane order (so every cell equals
/// C[i][j] + dotInterleavedAvx2(...)). Register-tiled: one A load feeds
/// three B rows, and a panel of B rows is reused across all m rows of A.
void dotTileAvx2(double* c, std::size_t ldc, const double* a,
                 std::size_t lda, std::size_t m, const double* b,
                 std::size_t ldb, std::size_t n, std::size_t k);
/// The RankUpdate, register-blocked: column strips of 32 are the outer
/// loop, and each strip's k×32 panel of B is first packed into \p panel
/// (k·32 doubles of scratch), so it stays in L1 whatever B's row stride;
/// then a 1×32 strip of C stays in 8 registers while its row's terms
/// stream past.
void rankKAvx2(const RankUpdate& u, double* panel);
/// One Adam update over n parameters: per element j,
///   grad = g[j]*inv_batch;  m = β1·m + (1-β1)·grad;
///   v = β2·v + ((1-β2)·grad)·grad;  w -= (lr·(m/bc1)) / (sqrt(v/bc2)+ε);
///   g[j] = 0.
/// Purely elementwise — no reductions — and every step (mul, add, div,
/// sqrt) is an individually rounded IEEE operation in the same order as
/// the scalar twin adamUpdateScalar, so both paths update bit-identically
/// and any split of [0, n) into parts does too. Once bc1 = 1 - β1^t rounds
/// to exactly 1.0 (t >= 355) the divide m/bc1 is skipped: m/1.0 == m bit
/// for bit for every double, infinities and NaN included.
void adamUpdateAvx2(double* w, double* g, double* m, double* v, std::size_t n,
                    double lr, double inv_batch, double bc1, double bc2);
/// y[j] += a * x[j] for j in [0, n).
void axpyAvx2(double* y, const double* x, double a, std::size_t n);
#endif

/// The scalar twin of adamUpdateAvx2 (defined in mlp.cpp): the same
/// per-element expression order, the same bc1 == 1.0 skip.
void adamUpdateScalar(double* w, double* g, double* m, double* v,
                      std::size_t n, double lr, double inv_batch, double bc1,
                      double bc2);

}  // namespace posetrl::simd
