/// AVX2 kernel bodies (see matrix_simd.h for the bit-identity contract).
/// This translation unit is the only one compiled with -mavx2, and it adds
/// -mno-fma -ffp-contract=off so neither the intrinsics below nor the
/// scalar tails can be contracted into FMA — fusion would skip the
/// intermediate rounding the scalar twins perform. It also instantiates no
/// standard-library template: an inline copy compiled here with -mavx2
/// could be the one the linker keeps for callers on any CPU.

#include "rl/matrix_simd.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>

namespace posetrl::simd {

namespace {

/// Finishes one canonical dot: acc[a] lane j holds the ascending-k sum of
/// the terms with k ≡ 4a+j (mod 16) below k16 — the scalar twin's
/// lanes[16] partials. The tail terms k16..k-1 land on lanes 0..tail-1
/// (whole quads as vector adds, the last partial quad lane by lane), then
/// the lanes combine in the canonical tree: t_j = (l_j + l_{j+4}) +
/// (l_{j+8} + l_{j+12}) is one vector expression over j, and
/// (t0+t2)+(t1+t3) folds its halves.
inline double finishDot(__m256d acc[4], const double* x, const double* y,
                        std::size_t k16, std::size_t k) {
  std::size_t kk = k16;
  int q = 0;
  for (; kk + 4 <= k; kk += 4, ++q) {
    acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(_mm256_loadu_pd(x + kk),
                                                  _mm256_loadu_pd(y + kk)));
  }
  if (kk < k) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc[q]);
    for (std::size_t l = 0; kk + l < k; ++l) lanes[l] += x[kk + l] * y[kk + l];
    acc[q] = _mm256_load_pd(lanes);
  }
  const __m256d t = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                  _mm256_add_pd(acc[2], acc[3]));
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(t),
                               _mm256_extractf128_pd(t, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// c[r] += dot(a, B row r) for r < NB: the NB dots share every load of a,
/// and all 16 lanes of each stay live (NB·4 accumulator registers).
/// IEEE multiplication commutes, so a·b here equals the x·y of
/// dotInterleavedAvx2 bit for bit.
template <int NB>
inline void dotRows(const double* a, const double* b, std::size_t ldb,
                    std::size_t k, double* c) {
  const std::size_t k16 = k & ~static_cast<std::size_t>(15);
  __m256d acc[NB][4];
#pragma GCC unroll 4
  for (int r = 0; r < NB; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_pd();
  }
  for (std::size_t kk = 0; kk < k16; kk += 16) {
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m256d av = _mm256_loadu_pd(a + kk + 4 * q);
#pragma GCC unroll 4
      for (int r = 0; r < NB; ++r) {
        const __m256d bv = _mm256_loadu_pd(b + r * ldb + kk + 4 * q);
        acc[r][q] = _mm256_add_pd(acc[r][q], _mm256_mul_pd(av, bv));
      }
    }
  }
  for (int r = 0; r < NB; ++r) {
    c[r] += finishDot(acc[r], a, b + r * ldb, k16, k);
  }
}

/// One 1×(4·NV) strip at column j0 of an ordered rank-k update, for every
/// row. B's panel is packed first; then each row's strip is loaded into NV
/// registers once, every term adds one rounded product per cell in term
/// order, and the strip is stored once.
template <int NV>
void rankStrip(const RankUpdate& u, std::size_t j0, double* panel) {
  constexpr std::size_t kWidth = 4 * NV;
  for (std::size_t kk = 0; kk < u.k; ++kk) {
    const double* src = u.b + kk * u.ldb + j0;
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) {
      _mm256_storeu_pd(panel + kk * kWidth + 4 * q,
                       _mm256_loadu_pd(src + 4 * q));
    }
  }
  for (std::size_t i = 0; i < u.m; ++i) {
    const RankTerm* t = u.terms + u.start[i];
    const RankTerm* const end = u.terms + u.start[i + 1];
    if (t == end) continue;
    double* cp = u.c + i * u.ldc + j0;
    __m256d acc[NV];
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) acc[q] = _mm256_loadu_pd(cp + 4 * q);
    for (; t != end; ++t) {
      const __m256d av = _mm256_set1_pd(t->coef);
      const double* bp = panel + t->row * kWidth;
#pragma GCC unroll 8
      for (int q = 0; q < NV; ++q) {
        acc[q] = _mm256_add_pd(acc[q],
                               _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * q)));
      }
    }
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) _mm256_storeu_pd(cp + 4 * q, acc[q]);
  }
}

}  // namespace

double dotInterleavedAvx2(const double* x, const double* y, std::size_t k) {
  const std::size_t k16 = k & ~static_cast<std::size_t>(15);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t kk = 0; kk < k16; kk += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(x + kk),
                                             _mm256_loadu_pd(y + kk)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + kk + 4),
                                             _mm256_loadu_pd(y + kk + 4)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(x + kk + 8),
                                             _mm256_loadu_pd(y + kk + 8)));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(x + kk + 12),
                                             _mm256_loadu_pd(y + kk + 12)));
  }
  __m256d acc[4] = {acc0, acc1, acc2, acc3};
  return finishDot(acc, x, y, k16, k);
}

void dotTileAvx2(double* c, std::size_t ldc, const double* a,
                 std::size_t lda, std::size_t m, const double* b,
                 std::size_t ldb, std::size_t n, std::size_t k) {
  // A panel of kPanel B rows (about 29 KB at k = 300) stays in L1 while
  // every row of A streams past it.
  constexpr std::size_t kPanel = 12;
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t j1 = n - j0 < kPanel ? n : j0 + kPanel;
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * lda;
      double* crow = c + i * ldc;
      std::size_t j = j0;
      for (; j + 3 <= j1; j += 3) {
        dotRows<3>(arow, b + j * ldb, ldb, k, crow + j);
      }
      if (j1 - j == 2) {
        dotRows<2>(arow, b + j * ldb, ldb, k, crow + j);
      } else if (j1 - j == 1) {
        dotRows<1>(arow, b + j * ldb, ldb, k, crow + j);
      }
    }
  }
}

void rankKAvx2(const RankUpdate& u, double* panel) {
  std::size_t j0 = 0;
  for (; j0 + 32 <= u.n; j0 += 32) rankStrip<8>(u, j0, panel);
  switch ((u.n - j0) / 4) {
    case 7: rankStrip<7>(u, j0, panel); break;
    case 6: rankStrip<6>(u, j0, panel); break;
    case 5: rankStrip<5>(u, j0, panel); break;
    case 4: rankStrip<4>(u, j0, panel); break;
    case 3: rankStrip<3>(u, j0, panel); break;
    case 2: rankStrip<2>(u, j0, panel); break;
    case 1: rankStrip<1>(u, j0, panel); break;
    default: break;
  }
  j0 += (u.n - j0) & ~static_cast<std::size_t>(3);
  // The last n mod 4 columns, one cell at a time in the same term order.
  for (std::size_t i = 0; i < u.m && j0 < u.n; ++i) {
    for (std::size_t j = j0; j < u.n; ++j) {
      double acc = u.c[i * u.ldc + j];
      for (std::size_t t = u.start[i]; t < u.start[i + 1]; ++t) {
        acc += u.terms[t].coef * u.b[u.terms[t].row * u.ldb + j];
      }
      u.c[i * u.ldc + j] = acc;
    }
  }
}

void axpyAvx2(double* y, const double* x, double a, std::size_t n) {
  // Element-wise independent (one mul, one add per y[j]), so any unroll
  // preserves the scalar order bit-for-bit.
  const __m256d av = _mm256_set1_pd(a);
  const std::size_t n8 = n & ~static_cast<std::size_t>(7);
  std::size_t j = 0;
  for (; j < n8; j += 8) {
    const __m256d p0 = _mm256_mul_pd(av, _mm256_loadu_pd(x + j));
    const __m256d p1 = _mm256_mul_pd(av, _mm256_loadu_pd(x + j + 4));
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), p0));
    _mm256_storeu_pd(y + j + 4,
                     _mm256_add_pd(_mm256_loadu_pd(y + j + 4), p1));
  }
  if (j + 4 <= n) {
    const __m256d p = _mm256_mul_pd(av, _mm256_loadu_pd(x + j));
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), p));
    j += 4;
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

namespace {

/// adamUpdateAvx2's loop, with the bias-corrected m/bc1 divide compiled in
/// only while bc1 differs from 1.0.
template <bool kDivideM>
void adamLoop(double* w, double* g, double* m, double* v, std::size_t n,
              double lr, double inv_batch, double bc1, double bc2) {
  const __m256d vinv = _mm256_set1_pd(inv_batch);
  const __m256d vb1 = _mm256_set1_pd(kAdamBeta1);
  const __m256d vb1c = _mm256_set1_pd(1.0 - kAdamBeta1);
  const __m256d vb2 = _mm256_set1_pd(kAdamBeta2);
  const __m256d vb2c = _mm256_set1_pd(1.0 - kAdamBeta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(kAdamEps);
  const __m256d vzero = _mm256_setzero_pd();
  const std::size_t n4 = n & ~static_cast<std::size_t>(3);
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    const __m256d grad = _mm256_mul_pd(_mm256_loadu_pd(g + j), vinv);
    const __m256d mj =
        _mm256_add_pd(_mm256_mul_pd(vb1, _mm256_loadu_pd(m + j)),
                      _mm256_mul_pd(vb1c, grad));
    const __m256d vj =
        _mm256_add_pd(_mm256_mul_pd(vb2, _mm256_loadu_pd(v + j)),
                      _mm256_mul_pd(_mm256_mul_pd(vb2c, grad), grad));
    const __m256d mh = kDivideM ? _mm256_div_pd(mj, vbc1) : mj;
    const __m256d vh = _mm256_div_pd(vj, vbc2);
    const __m256d upd = _mm256_div_pd(
        _mm256_mul_pd(vlr, mh), _mm256_add_pd(_mm256_sqrt_pd(vh), veps));
    _mm256_storeu_pd(w + j, _mm256_sub_pd(_mm256_loadu_pd(w + j), upd));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    _mm256_storeu_pd(g + j, vzero);
  }
  for (; j < n; ++j) {
    const double grad = g[j] * inv_batch;
    m[j] = kAdamBeta1 * m[j] + (1.0 - kAdamBeta1) * grad;
    v[j] = kAdamBeta2 * v[j] + (1.0 - kAdamBeta2) * grad * grad;
    const double mh = kDivideM ? m[j] / bc1 : m[j];
    const double vh = v[j] / bc2;
    w[j] -= lr * mh / (std::sqrt(vh) + kAdamEps);
    g[j] = 0.0;
  }
}

}  // namespace

void adamUpdateAvx2(double* w, double* g, double* m, double* v, std::size_t n,
                    double lr, double inv_batch, double bc1, double bc2) {
  if (bc1 == 1.0) {
    adamLoop<false>(w, g, m, v, n, lr, inv_batch, bc1, bc2);
  } else {
    adamLoop<true>(w, g, m, v, n, lr, inv_batch, bc1, bc2);
  }
}

}  // namespace posetrl::simd

#endif  // x86-64
