// Tests for the learner pool (support/parallel.h) and the parallel GEMM and
// Adam built on it: the scope's nesting and fork rules, exception
// propagation, the split arithmetic, byte-identical training state at every
// pool width under both SIMD dispatch modes, and a trainAgent run in a
// forked child after one in the parent (fork safety: no helper may outlive
// its scope).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "ir/module.h"
#include "rl/matrix.h"
#include "rl/matrix_simd.h"
#include "rl/mlp.h"
#include "support/error.h"
#include "support/hashing.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "workloads/generator.h"
#include "workloads/suites.h"

namespace posetrl {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 3, 4, 7};

std::vector<simd::SimdMode> simdModes() {
  std::vector<simd::SimdMode> modes = {simd::SimdMode::Scalar};
  simd::setSimdMode(simd::SimdMode::Auto);
  if (simd::avx2Active()) modes.push_back(simd::SimdMode::Avx2);
  return modes;
}

class LearnerPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::setSimdMode(simd::SimdMode::Auto); }
};

TEST_F(LearnerPoolTest, ScopesNestAndRestore) {
  EXPECT_EQ(ParallelScope::current(), nullptr);
  EXPECT_EQ(plannedParts(1u << 30, 1, 1u << 30), 1u) << "no scope: serial";
  {
    ParallelScope outer(4);
    ASSERT_NE(ParallelScope::current(), nullptr);
    EXPECT_EQ(ParallelScope::current()->width(), 4u);
    EXPECT_EQ(plannedParts(1u << 30, 1, 1u << 30), 4u);
    {
      ParallelScope inner(2);
      EXPECT_EQ(ParallelScope::current()->width(), 2u);
      EXPECT_EQ(plannedParts(1u << 30, 1, 1u << 30), 2u);
    }
    EXPECT_EQ(ParallelScope::current(), &outer.pool());
    // Inside a part no pool is current, on the caller or on a helper, so a
    // nested fork runs inline.
    std::atomic<int> nested_seen{0};
    forkJoin(4, [&](std::size_t) {
      if (ParallelScope::current() == nullptr) ++nested_seen;
      std::atomic<int> inner_parts{0};
      forkJoin(3, [&](std::size_t) { ++inner_parts; });
      EXPECT_EQ(inner_parts.load(), 3);
    });
    EXPECT_EQ(nested_seen.load(), 4);
    EXPECT_EQ(ParallelScope::current(), &outer.pool());
  }
  EXPECT_EQ(ParallelScope::current(), nullptr);
  // The scope lives on its thread only.
  ParallelScope here(3);
  WorkerPool* seen_elsewhere = &here.pool();
  std::thread([&] { seen_elsewhere = ParallelScope::current(); }).join();
  EXPECT_EQ(seen_elsewhere, nullptr);
}

TEST_F(LearnerPoolTest, EveryPartRunsOnceOnItsHelperOrTheCaller) {
  // Part 0 runs on the caller; part p > 0 runs on helper p or, when that
  // helper has not started it by the time the caller is done with part 0,
  // on the caller. Every part runs exactly once per fork and never on
  // another part's helper, so a part lands on the same helper in every fork
  // its helper runs.
  ParallelScope scope(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> helper(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t parts = 1 + static_cast<std::size_t>(round) % 4;
    std::vector<std::atomic<int>> runs(parts);
    std::vector<std::thread::id> ids(parts);
    forkJoin(parts, [&](std::size_t p) {
      ++runs[p];
      ids[p] = std::this_thread::get_id();
    });
    EXPECT_EQ(ids[0], caller) << "part 0 is the caller's";
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(runs[p].load(), 1) << "part " << p << " of " << parts;
      if (p == 0 || ids[p] == caller) continue;
      if (helper[p] == std::thread::id()) helper[p] = ids[p];
      EXPECT_EQ(ids[p], helper[p]) << "part " << p << " changed helpers";
    }
  }
  for (std::size_t p = 1; p < 4; ++p) {
    for (std::size_t q = 1; q < p; ++q) {
      if (helper[p] != std::thread::id()) {
        EXPECT_NE(helper[p], helper[q]) << "parts " << q << " and " << p;
      }
    }
  }
}

TEST_F(LearnerPoolTest, PartFatalErrorSurfacesOnTheCaller) {
  ParallelScope scope(4);
  std::atomic<int> finished{0};
  try {
    forkJoin(4, [&](std::size_t p) {
      if (p == 3) raiseError("part three failed");
      if (p == 1) raiseError("part one failed");
      ++finished;
    });
    FAIL() << "a part's FatalError was swallowed";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("part one failed"), std::string::npos)
        << "the lowest failing part wins: " << e.what();
  }
  EXPECT_EQ(finished.load(), 2) << "every other part still ran to the join";
  // The pool is usable after a failed fork.
  std::atomic<int> parts{0};
  forkJoin(4, [&](std::size_t) { ++parts; });
  EXPECT_EQ(parts.load(), 4);
}

TEST_F(LearnerPoolTest, SplitPointsCoverInAlignedRanges) {
  for (std::size_t n : {0u, 1u, 5u, 34u, 128u, 257u, 300u, 114338u}) {
    for (std::size_t parts = 1; parts <= 7; ++parts) {
      for (std::size_t align : {1u, 3u, 4u, 32u}) {
        EXPECT_EQ(splitPoint(n, parts, 0, align), 0u);
        EXPECT_EQ(splitPoint(n, parts, parts, align), n);
        for (std::size_t p = 1; p < parts; ++p) {
          const std::size_t at = splitPoint(n, parts, p, align);
          EXPECT_LE(splitPoint(n, parts, p - 1, align), at);
          EXPECT_TRUE(at % align == 0 || at == n) << n << "/" << parts;
        }
      }
    }
  }
  ParallelScope scope(4);
  EXPECT_EQ(plannedParts(10, 100, 8), 1u) << "below the grain: serial";
  EXPECT_EQ(plannedParts(250, 100, 8), 2u);
  EXPECT_EQ(plannedParts(1000, 100, 3), 3u) << "capped by the limit";
  EXPECT_EQ(plannedParts(1000, 100, 0), 1u);
}

/// Bytes of every cell of \p m.
std::string bytesOf(const Matrix& m) {
  return std::string(reinterpret_cast<const char*>(m.data()),
                     m.size() * sizeof(double));
}

/// An operand with every other row all zero and about half of the
/// remaining entries zero, like the ReLU-masked gradients.
Matrix sparseOperand(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x(rows, cols);
  for (std::size_t i = 0; i < rows; i += 2) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.nextBool(0.5)) x.at(i, j) = rng.nextDouble(-1, 1);
    }
  }
  return x;
}

TEST_F(LearnerPoolTest, GemmShapesBitIdenticalAtEveryWidth) {
  struct Case {
    std::size_t m, k, n;
  };
  // Big enough to fork, with n off the 1x3 tile and the 32-column strip,
  // and m below the widest pool.
  const Case cases[] = {{32, 300, 256}, {32, 256, 128}, {32, 301, 257},
                        {3, 2100, 97}, {5, 700, 64}, {32, 128, 34}};
  for (const simd::SimdMode mode : simdModes()) {
    simd::setSimdMode(mode);
    for (const Case& c : cases) {
      Rng rng(c.m * 7919 + c.k * 31 + c.n);
      // forward: C (m x n) += A (m x k) * B^T, B (n x k)
      const Matrix fa = sparseOperand(c.m, c.k, rng);
      const Matrix fb = Matrix::randomInit(c.n, c.k, rng);
      // weight gradient: C (m x n) += G^T * X, G (k x m), X (k x n)
      const Matrix wg = sparseOperand(c.k, c.m, rng);
      const Matrix wx = sparseOperand(c.k, c.n, rng);
      // input gradient: C (m x n) += G (m x k) * W (k x n)
      const Matrix ig = sparseOperand(c.m, c.k, rng);
      const Matrix iw = Matrix::randomInit(c.k, c.n, rng);
      const Matrix mask = sparseOperand(c.m, c.n, rng);
      std::vector<double> bias(c.n);
      for (double& b : bias) b = rng.nextDouble(-0.5, 0.5);
      const Matrix onto = Matrix::randomInit(c.m, c.n, rng);
      const auto products = [&] {
        std::string out;
        out += bytesOf(Matrix::matMul(fa, false, fb, true, {&bias, true}));
        Matrix acc = onto;
        acc.addMatMul(wg, true, wx, false);
        out += bytesOf(acc);
        out += bytesOf(Matrix::matMul(ig, false, iw, false,
                                      {nullptr, false, &mask}));
        return out;
      };
      const std::string serial = products();
      for (std::size_t width : kWidths) {
        ParallelScope scope(width);
        EXPECT_TRUE(products() == serial)
            << c.m << "x" << c.k << "x" << c.n << " width " << width;
      }
    }
  }
}

/// saveState bytes after \p updates batched updates of a net of \p sizes.
std::string trainedState(const std::vector<std::size_t>& sizes, int updates) {
  Rng init(11);
  Mlp net(sizes, init);
  Rng data(13);
  const std::size_t batch = 32;
  for (int u = 0; u < updates; ++u) {
    Matrix x(batch, sizes.front());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = data.nextDouble(-1, 1);
    }
    std::vector<std::size_t> actions(batch);
    std::vector<double> targets(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      // Few heads: most output-gradient rows stay all zero.
      actions[i] = data.nextBelow(std::min<std::size_t>(3, sizes.back()));
      targets[i] = data.nextDouble(-2, 2);
    }
    net.accumulateGradientBatch(x, actions, targets);
    net.adamStep(1e-3, batch);
  }
  std::ostringstream os;
  net.saveState(os);
  return os.str();
}

TEST_F(LearnerPoolTest, BatchedUpdatesBitIdenticalAtEveryWidth) {
  const std::vector<std::vector<std::size_t>> nets = {
      {300, 256, 128, 34}, {301, 257, 65, 5}, {2100, 3}};
  for (const simd::SimdMode mode : simdModes()) {
    simd::setSimdMode(mode);
    for (const auto& sizes : nets) {
      const std::string serial = trainedState(sizes, 3);
      for (std::size_t width : kWidths) {
        ParallelScope scope(width);
        EXPECT_TRUE(trainedState(sizes, 3) == serial)
            << "net of " << sizes.size() << " layers from " << sizes.front()
            << " inputs, width " << width;
      }
    }
  }
}

/// Digest of a short default-architecture training run: the episode
/// rewards and the saved model.
std::uint64_t trainDigest() {
  const SuiteSpec suite = trainingCorpus();
  std::vector<std::unique_ptr<Module>> storage;
  std::vector<const Module*> corpus;
  for (const ProgramSpec& spec : suite.programs) {
    if (spec.kernels > 3) continue;
    storage.push_back(generateProgram(spec));
    corpus.push_back(storage.back().get());
    if (corpus.size() == 3) break;
  }
  TrainConfig cfg;
  cfg.total_steps = 200;
  const TrainResult result = trainAgent(corpus, cfg);
  EXPECT_GT(result.agent->trainingUpdates(), 20u);
  const std::vector<double>& rewards = result.stats.episode_rewards;
  std::ostringstream os;
  os.write(reinterpret_cast<const char*>(rewards.data()),
           static_cast<std::streamsize>(rewards.size() * sizeof(double)));
  result.agent->saveModel(os);
  return fnv1a(os.str());
}

TEST_F(LearnerPoolTest, TrainAgentInForkedChildMatchesParent) {
  // e2ebench's pattern: a trainAgent in the parent, then the same run in a
  // child forked after it. A helper left running by the parent's scope
  // would not exist in the child, and its first fork would hang.
  const std::uint64_t parent = trainDigest();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    const std::uint64_t child = trainDigest();
    const bool wrote = write(fds[1], &child, sizeof child) == sizeof child;
    _exit(wrote ? 0 : 1);
  }
  close(fds[1]);
  std::uint64_t child = 0;
  const ssize_t got = read(fds[0], &child, sizeof child);
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof child));
  EXPECT_EQ(child, parent);
}

}  // namespace
}  // namespace posetrl
