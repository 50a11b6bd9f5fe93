/// \file micro_benchmarks.cpp
/// google-benchmark microbenchmarks for the infrastructure itself: pass
/// throughput, embedding computation, size/MCA models, interpreter speed,
/// module cloning, and DQN step latency. Useful for tracking performance
/// regressions in the substrate (not part of the paper's evaluation).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "analysis/fast_verifier.h"
#include "core/environment.h"
#include "core/oz_sequence.h"
#include "embed/embed_cache.h"
#include "embed/embedder.h"
#include "faults/sandbox.h"
#include "interp/interpreter.h"
#include "ir/basic_block.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/snapshot.h"
#include "passes/pass.h"
#include "rl/dqn.h"
#include "support/arena.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "target/mca_model.h"
#include "target/size_model.h"
#include "workloads/generator.h"

namespace {

using namespace posetrl;

std::unique_ptr<Module> benchProgram(std::uint64_t seed = 11,
                                     int kernels = 6) {
  ProgramSpec spec;
  spec.seed = seed;
  spec.kernels = kernels;
  return generateProgram(spec);
}

void BM_GenerateProgram(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto m = benchProgram(seed++);
    benchmark::DoNotOptimize(m->instructionCount());
  }
}
BENCHMARK(BM_GenerateProgram);

// The three copy paths; items/s is instructions copied per second, so
// 1e9 / items_per_second is ns/instr.
void BM_CloneModule(benchmark::State& state) {
  auto m = benchProgram();
  for (auto _ : state) {
    auto c = cloneModule(*m);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->instructionCount()));
}
BENCHMARK(BM_CloneModule);

void BM_InstructionClone(benchmark::State& state) {
  auto m = benchProgram();
  std::vector<Instruction*> insts;
  for (const auto& f : m->functions())
    for (const auto& bb : f->blocks())
      for (const auto& inst : bb->insts()) insts.push_back(inst.get());
  ArenaScope scope(m->arena());
  for (auto _ : state) {
    for (Instruction* inst : insts) {
      std::unique_ptr<Instruction> c(inst->clone());
      c->dropAllOperands();
      benchmark::DoNotOptimize(c.get());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(insts.size()));
}
BENCHMARK(BM_InstructionClone);

void BM_SnapshotCapture(benchmark::State& state) {
  auto m = benchProgram();
  ModuleSnapshot snap;  // reused, as the sandbox's scratch snapshot is
  for (auto _ : state) {
    snap.capture(*m);
    benchmark::DoNotOptimize(snap.instructionCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->instructionCount()));
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotRestore(benchmark::State& state) {
  auto m = benchProgram();
  ModuleSnapshot snap;
  snap.capture(*m);
  for (auto _ : state) {
    snap.restoreInto(*m);
    benchmark::DoNotOptimize(m.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->instructionCount()));
}
BENCHMARK(BM_SnapshotRestore);

// The serve path's -Oz memo hit: one print of the request (text equality)
// and, when -Oz wins, one parse of the stored output.
void BM_PrintModule(benchmark::State& state) {
  auto m = benchProgram();
  for (auto _ : state) benchmark::DoNotOptimize(printModule(*m));
}
BENCHMARK(BM_PrintModule);

void BM_ParseModule(benchmark::State& state) {
  const std::string text = printModule(*benchProgram());
  for (auto _ : state) {
    auto m = parseModule(text);
    benchmark::DoNotOptimize(m.get());
  }
}
BENCHMARK(BM_ParseModule);

void BM_SinglePass(benchmark::State& state, const char* pass) {
  auto base = benchProgram();
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cloneModule(*base);
    state.ResumeTiming();
    runPassSequence(*m, {pass});
  }
}
BENCHMARK_CAPTURE(BM_SinglePass, simplifycfg, "simplifycfg");
BENCHMARK_CAPTURE(BM_SinglePass, instcombine, "instcombine");
BENCHMARK_CAPTURE(BM_SinglePass, sroa, "sroa");
BENCHMARK_CAPTURE(BM_SinglePass, gvn, "gvn");
BENCHMARK_CAPTURE(BM_SinglePass, licm, "licm");
BENCHMARK_CAPTURE(BM_SinglePass, inline, "inline");
BENCHMARK_CAPTURE(BM_SinglePass, loop_unroll, "loop-unroll");

void BM_FullOzPipeline(benchmark::State& state) {
  auto base = benchProgram();
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cloneModule(*base);
    state.ResumeTiming();
    runPassSequence(*m, ozPassNames());
  }
}
BENCHMARK(BM_FullOzPipeline);

// The sandboxed -Oz rung as the serve path runs it (all checks on): passes,
// per-pass fast verifier and contract checker, one run-local analysis cache.
// One pool-like program per kernel count (the argument, 2..15, as in the
// e2ebench request pool); `walks` is fingerprint walks per rung and
// `walks_per_boundary` divides it by passes x defined functions.
void BM_SandboxedOzRung(benchmark::State& state) {
  const auto kernels = static_cast<int>(state.range(0));
  auto base = benchProgram(Rng::forStream(0x4e0e57, kernels).next(), kernels);
  std::size_t defined = 0;
  for (const auto& f : base->functions()) defined += !f->isDeclaration();
  const SandboxConfig sc = sandboxConfigFor(EnvConfig{});
  std::uint64_t walks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cloneModule(*base);
    const std::uint64_t walks_before = fingerprintCounts().walks;
    state.ResumeTiming();
    benchmark::DoNotOptimize(runActionSandboxed(m, ozPassNames(), sc).ok);
    state.PauseTiming();
    walks += fingerprintCounts().walks - walks_before;
    m.reset();
    state.ResumeTiming();
  }
  const double rungs = static_cast<double>(state.iterations());
  state.counters["walks"] = static_cast<double>(walks) / rungs;
  state.counters["walks_per_boundary"] =
      static_cast<double>(walks) / rungs /
      static_cast<double>(ozPassNames().size() * defined);
}
BENCHMARK(BM_SandboxedOzRung)->DenseRange(2, 15)->Unit(benchmark::kMillisecond);

// Dominator trees of every function of the unoptimized program.
void BM_DominatorTree(benchmark::State& state) {
  auto m = benchProgram();
  for (auto _ : state) {
    for (const auto& f : m->functions()) {
      if (f->isDeclaration()) continue;
      const DominatorTree dt(*f);
      benchmark::DoNotOptimize(dt.rpo().size());
    }
  }
}
BENCHMARK(BM_DominatorTree);

// One post-pass verification where a single function changed: the largest
// function is re-verified (its add's operands swap every iteration, so its
// skip key never matches) and every other function is skipped.
void BM_FastVerifyChangedFunction(benchmark::State& state) {
  auto m = benchProgram();
  Function* largest = nullptr;
  std::size_t most = 0;
  for (const auto& f : m->functions()) {
    std::size_t n = 0;
    for (const auto& b : f->blocks()) n += b->size();
    if (n > most) {
      most = n;
      largest = f.get();
    }
  }
  Instruction* add = nullptr;
  for (const auto& b : largest->blocks())
    for (const auto& inst : b->insts())
      if (add == nullptr && inst->opcode() == Opcode::Add) add = inst.get();
  AnalysisManager am;
  FastVerifier fv;
  fv.verify(*m, am);
  for (auto _ : state) {
    Value* lhs = add->operand(0);
    add->setOperand(0, add->operand(1));
    add->setOperand(1, lhs);
    benchmark::DoNotOptimize(fv.verify(*m, am).ok());
  }
  state.counters["instrs"] = static_cast<double>(most);
}
BENCHMARK(BM_FastVerifyChangedFunction);

void BM_ProgramEmbedding(benchmark::State& state) {
  auto m = benchProgram();
  Embedder e;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.embedProgram(*m));
  }
}
BENCHMARK(BM_ProgramEmbedding);

void BM_ProgramEmbeddingCached(benchmark::State& state) {
  // Steady-state cache hit: the cost of re-embedding an unchanged module
  // (one structural hash walk, EmbedCache::moduleHash, which never prints;
  // then the LRU lookup) vs BM_ProgramEmbedding's full flow computation. This is the no-op-step / fault-rollback path of
  // PhaseOrderEnv with cache_embeddings on.
  auto m = benchProgram();
  Embedder e;
  EmbedCache cache;
  cache.embed(*m, e);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.embed(*m, e).size());
  }
}
BENCHMARK(BM_ProgramEmbeddingCached);

void BM_SizeModel(benchmark::State& state) {
  auto m = benchProgram();
  SizeModel sm(TargetInfo::x86_64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sm.objectBytes(*m));
  }
}
BENCHMARK(BM_SizeModel);

void BM_McaModel(benchmark::State& state) {
  auto m = benchProgram();
  McaModel mca(TargetInfo::x86_64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mca.moduleEstimate(*m).throughput());
  }
}
BENCHMARK(BM_McaModel);

void BM_Interpreter(benchmark::State& state) {
  auto m = benchProgram();
  for (auto _ : state) {
    const ExecResult r = runModule(*m);
    benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_Interpreter);

void BM_EnvStep(benchmark::State& state) {
  auto m = benchProgram();
  EnvConfig cfg;
  PhaseOrderEnv env(*m, odgSubSequences(), cfg);
  std::size_t action = 0;
  env.reset();
  int steps = 0;
  for (auto _ : state) {
    if (steps++ % cfg.episode_length == 0) env.reset();
    benchmark::DoNotOptimize(env.step(action % env.numActions()).reward);
    ++action;
  }
}
BENCHMARK(BM_EnvStep);

// A greedy policy re-picks an action that left the IR unchanged, since it
// sees the same state again; the environment answers such repeats from its
// no-op memo. BM_EnvStep cycles through the actions and never repeats one.
void BM_EnvStepRepeatedNoop(benchmark::State& state) {
  auto m = benchProgram();
  PhaseOrderEnv env(*m, odgSubSequences(), EnvConfig{});
  env.reset();
  const std::size_t action = 0;
  // Re-apply until a run leaves the module unchanged: from then on every
  // repeat is a proven no-op.
  std::uint64_t before = 0;
  do {
    before = env.currentModule().contentStamp();
    env.step(action);
  } while (env.currentModule().contentStamp() != before);
  for (auto _ : state) benchmark::DoNotOptimize(env.step(action).reward);
}
BENCHMARK(BM_EnvStepRepeatedNoop);

void BM_DqnActAndLearn(benchmark::State& state) {
  DqnConfig cfg;
  cfg.state_dim = 300;
  cfg.num_actions = 34;
  DoubleDqn agent(cfg);
  std::vector<double> s(300, 0.1);
  for (auto _ : state) {
    const std::size_t a = agent.act(s, true);
    Transition t{s, a, 0.5, s, false};
    agent.observe(std::move(t));
  }
}
BENCHMARK(BM_DqnActAndLearn);

// --- batched GEMM vs per-sample matVec (the learner's inner loop) ----------

Matrix benchBatchStates(std::size_t n, std::size_t dim) {
  Rng rng(31);
  Matrix x(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) x.at(i, j) = rng.nextDouble(-1, 1);
  }
  return x;
}

void BM_MlpForwardBatchGemm(benchmark::State& state) {
  Rng rng(7);
  Mlp net({300, 256, 128, 34}, rng);
  const Matrix x = benchBatchStates(32, 300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forwardBatch(x).data());
  }
}
BENCHMARK(BM_MlpForwardBatchGemm);

void BM_MlpForwardPerSample(benchmark::State& state) {
  Rng rng(7);
  Mlp net({300, 256, 128, 34}, rng);
  const Matrix x = benchBatchStates(32, 300);
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::vector<double> row(x.data() + i * x.cols(),
                              x.data() + (i + 1) * x.cols());
      benchmark::DoNotOptimize(net.forward(row).size());
    }
  }
}
BENCHMARK(BM_MlpForwardPerSample);

void BM_MlpGradientBatchGemm(benchmark::State& state) {
  Rng rng(7);
  Mlp net({300, 256, 128, 34}, rng);
  const Matrix x = benchBatchStates(32, 300);
  std::vector<std::size_t> actions(32);
  std::vector<double> targets(32);
  for (std::size_t i = 0; i < 32; ++i) {
    actions[i] = i % 34;
    targets[i] = 0.1 * static_cast<double>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.accumulateGradientBatch(x, actions, targets));
    net.adamStep(1e-4, 32);
  }
}
BENCHMARK(BM_MlpGradientBatchGemm);

void BM_MlpGradientPerSample(benchmark::State& state) {
  Rng rng(7);
  Mlp net({300, 256, 128, 34}, rng);
  const Matrix x = benchBatchStates(32, 300);
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::vector<double> row(x.data() + i * x.cols(),
                              x.data() + (i + 1) * x.cols());
      benchmark::DoNotOptimize(
          net.accumulateGradient(row, i % 34, 0.1 * static_cast<double>(i)));
    }
    net.adamStep(1e-4, 32);
  }
}
BENCHMARK(BM_MlpGradientPerSample);

void BM_MlpAdamStep(benchmark::State& state) {
  // Adam alone over the DQN's 113,920 parameters: three divides and a
  // square root per parameter, all in the divider unit.
  Rng rng(7);
  Mlp net({300, 256, 128, 34}, rng);
  const Matrix x = benchBatchStates(32, 300);
  std::vector<std::size_t> actions(32);
  std::vector<double> targets(32);
  for (std::size_t i = 0; i < 32; ++i) {
    actions[i] = i % 34;
    targets[i] = 0.1 * static_cast<double>(i);
  }
  net.accumulateGradientBatch(x, actions, targets);
  for (auto _ : state) net.adamStep(1e-4, 32);
}
BENCHMARK(BM_MlpAdamStep);

void BM_DqnTrainOnBatch(benchmark::State& state) {
  // One default-config learner update (batch 32, Monte-Carlo targets):
  // batch assembly, the batched forward/backward GEMMs and Adam, on a
  // learner pool of the given width (1 is the serial path).
  ParallelScope scope(static_cast<std::size_t>(state.range(0)));
  DqnConfig cfg;
  DoubleDqn agent(cfg);
  Rng rng(41);
  std::vector<Transition> replay(1024);
  for (Transition& t : replay) {
    t.state.resize(cfg.state_dim);
    for (double& v : t.state) v = rng.nextDouble(-1, 1);
    t.action = rng.nextBelow(cfg.num_actions);
    t.reward = rng.nextDouble(-1, 1);
    t.next_state = t.state;
    t.use_mc = true;
    t.mc_return = rng.nextDouble(-2, 2);
  }
  std::vector<const Transition*> batch(cfg.batch_size);
  for (auto _ : state) {
    for (const Transition*& t : batch) {
      t = &replay[rng.nextBelow(replay.size())];
    }
    benchmark::DoNotOptimize(agent.trainOnBatch(batch));
  }
}
BENCHMARK(BM_DqnTrainOnBatch)
    ->ArgName("width")
    ->DenseRange(1, 4)
    ->UseRealTime();

/// A GEMM operand sparsified like the DQN update's: density_pct 100 is
/// dense, 0 is one non-zero per row (the one-hot output-layer gradient),
/// anything else keeps about that share of entries (ReLU activations and
/// ReLU-masked gradients are about half zeros).
Matrix gemmOperand(std::size_t rows, std::size_t cols, int density_pct,
                   Rng& rng) {
  Matrix x(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    if (density_pct == 0) {
      x.at(i, rng.nextBelow(cols)) = rng.nextDouble(-1, 1);
      continue;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      if (static_cast<int>(rng.nextBelow(100)) < density_pct) {
        x.at(i, j) = rng.nextDouble(-1, 1);
      }
    }
  }
  return x;
}

void BM_MlpLayerGemm(benchmark::State& state) {
  // One of the learner's GEMMs at its real shape: C (m×n) += op(A)·op(B)
  // over k, where shape 0 is the forward A·Bᵀ, 1 the weight gradient Aᵀ·B
  // and 2 the input gradient A·B. GMAC/s counts the dense m·k·n MACs, so
  // skipped zero terms show up as a higher rate.
  const int shape = static_cast<int>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto n = static_cast<std::size_t>(state.range(3));
  const int density = static_cast<int>(state.range(4));
  Rng rng(5);
  const bool ta = shape == 1;
  const bool tb = shape == 0;
  const Matrix a = ta ? gemmOperand(k, m, density, rng)
                      : gemmOperand(m, k, density, rng);
  const Matrix b = tb ? Matrix::randomInit(n, k, rng)
                      : Matrix::randomInit(k, n, rng);
  Matrix c = Matrix::zeros(m, n);
  for (auto _ : state) {
    c.addMatMul(a, ta, b, tb);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(m * k * n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MlpLayerGemm)
    ->ArgNames({"shape", "m", "k", "n", "density"})
    ->Args({0, 32, 300, 256, 100})  // forward layer 1
    ->Args({0, 32, 256, 128, 50})   // forward layer 2
    ->Args({0, 32, 128, 34, 50})    // forward layer 3
    ->Args({1, 256, 32, 300, 50})   // dW1 += g1ᵀ·x
    ->Args({1, 128, 32, 256, 50})   // dW2 += g2ᵀ·a1
    ->Args({1, 34, 32, 128, 0})     // dW3 += g3ᵀ·a2, one-hot g3
    ->Args({2, 32, 128, 256, 50})   // dX2 = g2·W2
    ->Args({2, 32, 34, 128, 0});    // dX3 = g3·W3, one-hot g3

}  // namespace

BENCHMARK_MAIN();
