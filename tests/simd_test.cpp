// Bit-identity tests for the runtime-dispatched SIMD GEMM kernels
// (rl/matrix_simd.h): forced-scalar and forced-AVX2 runs must produce
// byte-identical results for every op(A)*op(B) shape, including dimensions
// that are not multiples of the vector width, accumulation onto non-zero
// C, the TN path's sparse-row skipping, and the matVec twin; a whole
// training run, which also dispatches in the embedder, must not diverge
// either. The trainer's run-twice/checkpoint byte-identity across
// heterogeneous machines depends on these kernels never diverging.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "ir/module.h"
#include "rl/matrix.h"
#include "rl/matrix_simd.h"
#include "rl/mlp.h"
#include "support/rng.h"
#include "workloads/generator.h"
#include "workloads/suites.h"

namespace posetrl {
namespace {

class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::setSimdMode(simd::SimdMode::Auto); }

  /// True when this machine can run the AVX2 kernels at all.
  static bool haveAvx2() {
    simd::setSimdMode(simd::SimdMode::Auto);
    return simd::avx2Active();
  }
};

struct Shape {
  std::size_t m, k, n;
};

// Deliberately awkward shapes: 1s, primes, exact vector widths, one-off
// each side of the 4-lane and 16-lane boundaries, and a DQN-sized case.
const Shape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 16, 8},   {5, 17, 3},
    {8, 15, 8},  {17, 33, 9},  {16, 64, 16}, {31, 65, 29},
    {2, 300, 4},
};

Matrix randomMatrix(std::size_t r, std::size_t c, Rng& rng) {
  return Matrix::randomInit(r, c, rng);
}

TEST_F(SimdTest, ModeApiRoundTripsAndControlsDispatch) {
  simd::setSimdMode(simd::SimdMode::Scalar);
  EXPECT_EQ(simd::simdMode(), simd::SimdMode::Scalar);
  EXPECT_FALSE(simd::avx2Active());
  simd::setSimdMode(simd::SimdMode::Auto);
  EXPECT_EQ(simd::simdMode(), simd::SimdMode::Auto);
}

TEST_F(SimdTest, MatMulBitIdenticalAcrossDispatchAllShapes) {
  if (!haveAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(4242);
  for (const Shape& s : kShapes) {
    // Operand layouts per transpose mode: NN (m×k · k×n), NT (m×k · n×k),
    // TN (k×m · k×n).
    const Matrix a_nn = randomMatrix(s.m, s.k, rng);
    const Matrix b_nn = randomMatrix(s.k, s.n, rng);
    const Matrix b_nt = randomMatrix(s.n, s.k, rng);
    const Matrix a_tn = randomMatrix(s.k, s.m, rng);

    struct Case {
      const Matrix* a;
      bool ta;
      const Matrix* b;
      bool tb;
    } cases[] = {
        {&a_nn, false, &b_nn, false},  // NN
        {&a_nn, false, &b_nt, true},   // NT
        {&a_tn, true, &b_nn, false},   // TN
    };
    for (const Case& c : cases) {
      simd::setSimdMode(simd::SimdMode::Scalar);
      const Matrix scalar = Matrix::matMul(*c.a, c.ta, *c.b, c.tb);
      simd::setSimdMode(simd::SimdMode::Avx2);
      const Matrix vec = Matrix::matMul(*c.a, c.ta, *c.b, c.tb);
      EXPECT_EQ(scalar.raw(), vec.raw())
          << "shape " << s.m << "x" << s.k << "x" << s.n << " ta=" << c.ta
          << " tb=" << c.tb;
    }
  }
}

TEST_F(SimdTest, AddMatMulOntoNonZeroCBitIdentical) {
  if (!haveAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(77);
  for (const Shape& s : kShapes) {
    const Matrix a = randomMatrix(s.m, s.k, rng);
    const Matrix b = randomMatrix(s.k, s.n, rng);
    const Matrix c0 = randomMatrix(s.m, s.n, rng);

    Matrix c_scalar = c0;
    simd::setSimdMode(simd::SimdMode::Scalar);
    c_scalar.addMatMul(a, false, b, false);

    Matrix c_vec = c0;
    simd::setSimdMode(simd::SimdMode::Avx2);
    c_vec.addMatMul(a, false, b, false);

    EXPECT_EQ(c_scalar.raw(), c_vec.raw());
  }
}

TEST_F(SimdTest, MatVecMatchesNtGemmRowBitExact) {
  Rng rng(909);
  for (const Shape& s : kShapes) {
    const Matrix w = randomMatrix(s.m, s.k, rng);
    const Matrix x = randomMatrix(1, s.k, rng);
    const std::vector<double> v(x.raw());
    // forwardBatch's contract: one GEMM row ≡ one matVec, bit for bit,
    // under whatever dispatch mode is active.
    const std::vector<double> mv = w.matVec(v, nullptr);
    const Matrix gemm = Matrix::matMul(w, false, x, true);  // m×1
    ASSERT_EQ(gemm.rows(), s.m);
    for (std::size_t r = 0; r < s.m; ++r) {
      EXPECT_EQ(mv[r], gemm.at(r, 0)) << "row " << r;
    }
  }
}

TEST_F(SimdTest, TnSkipsZeroRowsIdenticallyInBothPaths) {
  Rng rng(1313);
  const std::size_t m = 13, k = 21, n = 19;
  // Gradient-shaped A: most entries zero (the sparse output-layer grads
  // the TN fast path is built for).
  Matrix a = Matrix::zeros(k, m);
  for (std::size_t kk = 0; kk < k; kk += 3) {
    a.at(kk, (kk * 5) % m) = rng.nextGaussian();
  }
  const Matrix b = randomMatrix(k, n, rng);

  // Per-sample reference: ascending-k rank-1 updates with the same
  // zero-skip, exactly what Mlp::accumulateGradient does row by row.
  Matrix ref = Matrix::zeros(m, n);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) {
      const double av = a.at(kk, i);
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        ref.at(i, j) += av * b.at(kk, j);
      }
    }
  }

  simd::setSimdMode(simd::SimdMode::Scalar);
  Matrix c_scalar = Matrix::zeros(m, n);
  c_scalar.addMatMul(a, true, b, false);
  EXPECT_EQ(c_scalar.raw(), ref.raw());

  if (haveAvx2()) {
    simd::setSimdMode(simd::SimdMode::Avx2);
    Matrix c_vec = Matrix::zeros(m, n);
    c_vec.addMatMul(a, true, b, false);
    EXPECT_EQ(c_vec.raw(), ref.raw());
  }
}

TEST_F(SimdTest, AdamKernelBitIdenticalAcrossDispatch) {
  if (!haveAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  Rng rng(1337);
  const double lr = 1e-3, inv_batch = 1.0 / 32.0;
  const double bc1 = 1.0 - 0.9, bc2 = 1.0 - 0.999;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{5}, std::size_t{7}, std::size_t{17},
                        std::size_t{300}}) {
    std::vector<double> w(n), g(n), m(n), v(n);
    for (std::size_t j = 0; j < n; ++j) {
      w[j] = rng.nextGaussian();
      g[j] = rng.nextGaussian();
      m[j] = rng.nextGaussian() * 0.1;
      v[j] = std::abs(rng.nextGaussian()) * 0.1;
    }
    // Reference: the documented per-element expression order, each step an
    // individually rounded IEEE operation (the scalar twin's contract).
    std::vector<double> rw = w, rg = g, rm = m, rv = v;
    for (std::size_t j = 0; j < n; ++j) {
      const double grad = rg[j] * inv_batch;
      rm[j] = simd::kAdamBeta1 * rm[j] + (1.0 - simd::kAdamBeta1) * grad;
      rv[j] =
          simd::kAdamBeta2 * rv[j] + (1.0 - simd::kAdamBeta2) * grad * grad;
      rw[j] -= lr * (rm[j] / bc1) /
               (std::sqrt(rv[j] / bc2) + simd::kAdamEps);
      rg[j] = 0.0;
    }
    simd::adamUpdateAvx2(w.data(), g.data(), m.data(), v.data(), n, lr,
                         inv_batch, bc1, bc2);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(w[j], rw[j]) << "n=" << n << " j=" << j;
      EXPECT_EQ(m[j], rm[j]) << "n=" << n << " j=" << j;
      EXPECT_EQ(v[j], rv[j]) << "n=" << n << " j=" << j;
      EXPECT_EQ(g[j], 0.0) << "n=" << n << " j=" << j;
    }
  }
}

TEST_F(SimdTest, MlpAdamTrainingBitIdenticalAcrossDispatch) {
  if (!haveAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  // End-to-end guard on Mlp::adamStep's dispatch: the same gradient/update
  // cycle under forced-scalar and forced-AVX2 must leave byte-identical
  // parameters AND optimizer state (saveState round-trips every double).
  const std::vector<std::size_t> sizes = {13, 17, 5};
  auto run = [&](simd::SimdMode mode) {
    simd::setSimdMode(mode);
    Rng rng(99);
    Mlp net(sizes, rng);
    Rng data(7);
    for (int it = 0; it < 5; ++it) {
      for (int s = 0; s < 4; ++s) {
        std::vector<double> x(sizes.front());
        for (double& xv : x) xv = data.nextGaussian();
        net.accumulateGradient(x, data.nextBelow(sizes.back()),
                               data.nextGaussian());
      }
      net.adamStep(1e-3, 4);
    }
    std::ostringstream os;
    net.saveState(os);
    return os.str();
  };
  const std::string scalar_state = run(simd::SimdMode::Scalar);
  const std::string avx2_state = run(simd::SimdMode::Avx2);
  EXPECT_EQ(scalar_state, avx2_state);
}

TEST_F(SimdTest, TrainAgentBitIdenticalAcrossDispatch) {
  if (!haveAvx2()) GTEST_SKIP() << "CPU lacks AVX2";
  // End to end over every dispatching layer a training step runs: the
  // embedder's accumulates (the RL state) and the learner's GEMM + Adam.
  // A short epsilon decay puts greedy, Q-value-driven actions in the
  // trajectory, so any divergence in a state vector changes what follows.
  const SuiteSpec suite = trainingCorpus();
  std::vector<std::unique_ptr<Module>> storage;
  std::vector<const Module*> corpus;
  for (const ProgramSpec& spec : suite.programs) {
    if (spec.kernels > 3) continue;
    storage.push_back(generateProgram(spec));
    corpus.push_back(storage.back().get());
    if (corpus.size() == 4) break;
  }
  ASSERT_EQ(corpus.size(), 4u);
  auto run = [&](simd::SimdMode mode) {
    simd::setSimdMode(mode);
    TrainConfig cfg;
    cfg.total_steps = 300;
    cfg.agent.epsilon_decay_steps = 200;
    const TrainResult result = trainAgent(corpus, cfg);
    EXPECT_GT(result.stats.episodes, 10u);
    const std::vector<double>& rewards = result.stats.episode_rewards;
    std::ostringstream os;
    os.write(reinterpret_cast<const char*>(rewards.data()),
             static_cast<std::streamsize>(rewards.size() * sizeof(double)));
    result.agent->saveModel(os);
    return os.str();
  };
  const std::string scalar_run = run(simd::SimdMode::Scalar);
  const std::string avx2_run = run(simd::SimdMode::Avx2);
  EXPECT_TRUE(scalar_run == avx2_run)
      << "episode rewards or saved model differ across dispatch paths";
}

TEST_F(SimdTest, ResultsStayCloseToNaiveReference) {
  // The canonical interleaved order is a *different* summation order than
  // a naive ascending dot, so values differ in the last bits — but they
  // must stay within a few ulps-scale of it (no accumulation blowup).
  Rng rng(555);
  const std::size_t m = 9, k = 123, n = 11;
  const Matrix a = randomMatrix(m, k, rng);
  const Matrix b = randomMatrix(n, k, rng);
  const Matrix c = Matrix::matMul(a, false, b, true);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double naive = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        naive += a.at(i, kk) * b.at(j, kk);
      }
      EXPECT_NEAR(c.at(i, j), naive, 1e-9 * (1.0 + std::abs(naive)));
    }
  }
}

}  // namespace
}  // namespace posetrl
