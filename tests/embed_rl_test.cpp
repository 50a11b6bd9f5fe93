// Tests for the embedding library (IR2Vec analog) and the from-scratch RL
// stack (matrix, MLP+Adam, replay buffer, Double DQN).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "embed/embed_cache.h"
#include "embed/embedder.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "pass_soup.h"
#include "passes/pass.h"
#include "rl/dqn.h"
#include "rl/matrix.h"
#include "rl/matrix_simd.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"
#include "support/error.h"
#include "support/rng.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

double l2(const Embedding& a, const Embedding& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(s);
}

TEST(EmbedderTest, DimensionsMatchConfig) {
  Embedder e;
  EXPECT_EQ(e.entityVector("opcode:add").size(), 300u);
  EmbeddingConfig cfg;
  cfg.dim = 64;
  Embedder e2(cfg);
  EXPECT_EQ(e2.entityVector("opcode:add").size(), 64u);
}

TEST(EmbedderTest, EntityVectorsDeterministicAndDistinct) {
  Embedder e;
  EXPECT_EQ(e.entityVector("opcode:add"), e.entityVector("opcode:add"));
  EXPECT_GT(l2(e.entityVector("opcode:add"), e.entityVector("opcode:mul")),
            0.1);
}

TEST(EmbedderTest, ProgramEmbeddingDeterministic) {
  ProgramSpec spec;
  spec.seed = 99;
  auto m1 = generateProgram(spec);
  auto m2 = generateProgram(spec);
  Embedder e;
  EXPECT_EQ(e.embedProgram(*m1), e.embedProgram(*m2));
}

TEST(EmbedderTest, EmbeddingRespondsToOptimization) {
  ProgramSpec spec;
  spec.seed = 100;
  auto m = generateProgram(spec);
  Embedder e;
  const Embedding before = e.embedProgram(*m);
  runPassSequence(*m, parsePassSequence("-mem2reg -instcombine -simplifycfg"));
  const Embedding after = e.embedProgram(*m);
  EXPECT_GT(l2(before, after), 1e-6)
      << "optimizing the program must move the RL state";
}

TEST(EmbedderTest, DifferentProgramsDiffer) {
  ProgramSpec a;
  a.seed = 1;
  ProgramSpec b;
  b.seed = 2;
  auto ma = generateProgram(a);
  auto mb = generateProgram(b);
  Embedder e;
  EXPECT_GT(l2(e.embedProgram(*ma), e.embedProgram(*mb)), 1e-3);
}

// --- reference embedder ----------------------------------------------------

/// The map-based embedder the dense one replaced, kept as the executable
/// specification of embedder.h's bit-identity contract: a symbolic vector
/// built from strings for every instruction, a whole-map copy per flow
/// round, pointer-keyed producer lookups, and a plain scalar accumulate.
class ReferenceEmbedder {
 public:
  explicit ReferenceEmbedder(EmbeddingConfig config)
      : config_(config), vocab_(config) {}

  Embedding embedInstruction(const Instruction& inst) {
    Embedding v(static_cast<std::size_t>(config_.dim), 0.0);
    std::string op_entity = std::string("opcode:") + opcodeName(inst.opcode());
    if (inst.opcode() == Opcode::ICmp) {
      op_entity += ":";
      op_entity +=
          ICmpInst::predName(static_cast<const ICmpInst&>(inst).pred());
    }
    accumulate(v, entity(op_entity), config_.weight_opcode);
    accumulate(v, entity("type:" + inst.type()->str()), config_.weight_type);
    for (const Value* operand : inst.operands()) {
      accumulate(v, entity(operandKind(*operand)), config_.weight_operand);
    }
    if (inst.vectorWidth() > 1) {
      accumulate(v, entity("attr:vector"), config_.weight_type);
    }
    return v;
  }

  Embedding embedFunction(const Function& f) {
    const std::size_t dim = static_cast<std::size_t>(config_.dim);
    std::map<const Instruction*, Embedding> vec;
    for (const auto& bb : f.blocks()) {
      for (const auto& inst : bb->insts()) {
        vec[inst.get()] = embedInstruction(*inst);
      }
    }
    for (int round = 0; round < config_.flow_rounds; ++round) {
      std::map<const Instruction*, Embedding> next = vec;
      for (auto& [inst, v] : next) {
        std::size_t producers = 0;
        for (const Value* op : inst->operands()) {
          if (isa<Instruction>(op)) ++producers;
        }
        if (producers == 0) continue;
        const double share =
            config_.flow_rate / static_cast<double>(producers);
        for (const Value* op : inst->operands()) {
          const auto* def = dynCast<Instruction>(op);
          if (def == nullptr) continue;
          auto it = vec.find(def);
          if (it != vec.end()) accumulate(v, it->second, share);
        }
      }
      vec = std::move(next);
    }
    Embedding out(dim, 0.0);
    for (const auto& bb : f.blocks()) {
      for (const auto& inst : bb->insts()) {
        accumulate(out, vec.at(inst.get()), 1.0);
      }
    }
    return out;
  }

  Embedding embedProgram(const Module& m) {
    Embedding out(static_cast<std::size_t>(config_.dim), 0.0);
    for (const auto& f : m.functions()) {
      if (f->isDeclaration()) continue;
      accumulate(out, embedFunction(*f), 1.0);
    }
    for (const auto& g : m.globals()) {
      accumulate(out, entity("global:" + g->valueType()->str()), 0.25);
    }
    double norm = 0.0;
    for (double x : out) norm += x * x;
    norm = std::sqrt(norm);
    if (norm > 1e-9) {
      const double scale = std::log1p(norm) / norm;
      for (double& x : out) x *= scale;
    }
    return out;
  }

 private:
  static void accumulate(Embedding& into, const Embedding& from,
                         double scale) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += scale * from[i];
  }

  static const char* operandKind(const Value& v) {
    switch (v.kind()) {
      case Value::Kind::ConstantInt:
      case Value::Kind::ConstantFloat:
      case Value::Kind::ConstantNull:
      case Value::Kind::Undef:
        return "operand:const";
      case Value::Kind::Argument:
        return "operand:arg";
      case Value::Kind::BasicBlock:
        return "operand:label";
      case Value::Kind::GlobalVariable:
        return "operand:global";
      case Value::Kind::Function:
        return "operand:function";
      case Value::Kind::Instruction:
        return "operand:var";
    }
    return "operand:var";
  }

  const Embedding& entity(const std::string& name) {
    auto it = cache_.find(name);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(name, vocab_.entityVector(name)).first->second;
  }

  EmbeddingConfig config_;
  Embedder vocab_;  // entityVector only
  std::map<std::string, Embedding> cache_;
};

bool sameBytes(const Embedding& a, const Embedding& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::unique_ptr<Module> parseOrFail(const std::string& text) {
  std::string err;
  auto m = parseModule(text, &err);
  EXPECT_NE(m, nullptr) << err;
  return m;
}

/// `declare @name : fn(i64 × arity) -> i64`.
std::string declareWide(const std::string& name, int arity) {
  std::string text = "declare @" + name + " : fn(";
  for (int i = 0; i < arity; ++i) text += i == 0 ? "i64" : ", i64";
  return text + ") -> i64\n";
}

/// `call @name(...)` with `arity` arguments; argument `odd` is \p odd_value,
/// the rest constants, so calls differing only in `odd` or \p odd_value
/// differ only in one operand kind.
std::string callWide(const std::string& result, const std::string& name,
                     int arity, int odd,
                     const std::string& odd_value = "%arg1") {
  std::string text = "  %" + result + " : i64 = call @" + name + "(";
  for (int i = 0; i < arity; ++i) {
    if (i > 0) text += ", ";
    text += i == odd ? odd_value : "i64 " + std::to_string(i);
  }
  return text + ")\n";
}

/// Shapes generated programs rarely or never contain: every icmp
/// predicate, vector-marked instructions, declaration-only functions, and
/// calls right at and past the memo signature's operand capacity (21).
std::unique_ptr<Module> signatureEdgeModule() {
  std::string text = "module \"edges\"\n";
  text += declareWide("w20", 20) + declareWide("w21", 21) +
          declareWide("w24", 24);
  text += "global @g : [4 x i64] = array [1, 2, 3, 4], internal\n";
  text += "define @f : fn(i64, i64) -> i64 internal {\nblock e:\n";
  int id = 0;
  for (const char* pred : {"eq", "ne", "slt", "sle", "sgt", "sge", "ult",
                           "ule", "ugt", "uge"}) {
    text += "  %c" + std::to_string(id++) + " : i1 = icmp " + pred +
            " %arg0, %arg1\n";
  }
  text += "  %v : i64 = add %arg0, i64 1 vec 4\n";
  text += "  %w : i64 = mul %v, %arg1 vec 4\n";
  text += "  %s : i64 = mul %v, %arg1\n";
  text += callWide("a", "w20", 20, 19) + callWide("b", "w20", 20, 18);
  // Operand kinds 1 (arg) and 5 (var) share their low bit: a signature
  // that packed a 22nd operand would keep only that bit and collide.
  text += callWide("c", "w21", 21, 20) + callWide("d", "w21", 21, 20, "%s");
  text += callWide("x", "w24", 24, 3) + callWide("y", "w24", 24, 23);
  text += "  %t0 : i64 = add %a, %b\n  %t1 : i64 = add %t0, %c\n";
  text += "  %t2 : i64 = add %t1, %d\n  %t3 : i64 = add %t2, %x\n";
  text += "  %t4 : i64 = add %t3, %y\n  %t5 : i64 = add %t4, %w\n";
  text += "  %t6 : i64 = add %t5, %s\n  ret %t6\n}\n";
  return parseOrFail(text);
}

/// Generated programs, pass-soup outputs (phis, vectorized loops, dead
/// blocks) and the hand-written signature edge cases.
std::vector<std::unique_ptr<Module>> referenceCorpus() {
  std::vector<std::unique_ptr<Module>> corpus;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ProgramSpec spec;
    spec.seed = 4000 + seed;
    spec.kernels = 1 + static_cast<int>(seed);
    corpus.push_back(generateProgram(spec));
  }
  const auto names = fuzzablePassNames();
  Rng rng(606);
  for (int trial = 0; trial < 8; ++trial) {
    ProgramSpec spec;
    spec.seed = 5000 + static_cast<std::uint64_t>(trial);
    spec.kernels = 2 + trial % 3;
    auto m = generateProgram(spec);
    std::vector<std::string> soup = randomSoup(names, rng, 12);
    if (trial % 2 == 0) {
      // Half the soups vectorize, so vector-marked instructions flow.
      soup.insert(soup.begin(), {"mem2reg", "loop-vectorize"});
    }
    runPassSequence(*m, soup);
    corpus.push_back(std::move(m));
  }
  corpus.push_back(signatureEdgeModule());
  return corpus;
}

class EmbedderReferenceTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::setSimdMode(simd::SimdMode::Auto); }

  /// Dispatch modes this machine can run.
  static std::vector<simd::SimdMode> modes() {
    simd::setSimdMode(simd::SimdMode::Auto);
    std::vector<simd::SimdMode> out = {simd::SimdMode::Scalar};
    if (simd::avx2Active()) out.push_back(simd::SimdMode::Avx2);
    return out;
  }

  /// embedProgram and every embedFunction of \p m equal the reference's,
  /// byte for byte, under every dims × flow_rounds × dispatch combination.
  static void expectMatchesReference(const std::vector<const Module*>& ms) {
    for (const simd::SimdMode mode : modes()) {
      simd::setSimdMode(mode);
      for (const int dim : {300, 64, 7, 1}) {
        for (const int rounds : {0, 1, 2, 3}) {
          EmbeddingConfig cfg;
          cfg.dim = dim;
          cfg.flow_rounds = rounds;
          Embedder e(cfg);
          ReferenceEmbedder ref(cfg);
          for (std::size_t i = 0; i < ms.size(); ++i) {
            const std::string what =
                "module " + std::to_string(i) + " dim " +
                std::to_string(dim) + " rounds " + std::to_string(rounds) +
                " mode " + std::to_string(static_cast<int>(mode));
            EXPECT_TRUE(sameBytes(e.embedProgram(*ms[i]),
                                  ref.embedProgram(*ms[i])))
                << what;
            for (const auto& f : ms[i]->functions()) {
              EXPECT_TRUE(sameBytes(e.embedFunction(*f),
                                    ref.embedFunction(*f)))
                  << what << " @" << f->name();
            }
          }
        }
      }
    }
  }
};

TEST_F(EmbedderReferenceTest, MatchesReferenceAcrossConfigsAndDispatch) {
  const auto corpus = referenceCorpus();
  std::vector<const Module*> ms;
  std::size_t vector_insts = 0, declarations = 0;
  for (const auto& m : corpus) {
    ASSERT_NE(m, nullptr);
    ms.push_back(m.get());
    for (const auto& f : m->functions()) {
      if (f->isDeclaration()) ++declarations;
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          if (inst->vectorWidth() > 1) ++vector_insts;
        }
      }
    }
  }
  // The corpus really holds the shapes the contract is about.
  EXPECT_GT(vector_insts, 2u);
  EXPECT_GT(declarations, 3u);
  expectMatchesReference(ms);
}

TEST_F(EmbedderReferenceTest, ForeignProducerCountsInShareButDoesNotFlow) {
  // An operand defined in another function (left behind by a buggy pass;
  // the env embeds before the verifier rejects it) is no flow source, but
  // still counts in share's divisor.
  auto m = parseOrFail(R"(
module "foreign"
define @h : fn(i64) -> i64 internal {
block e:
  %p : i64 = mul %arg0, i64 3
  ret %p
}
define @f : fn(i64) -> i64 internal {
block e:
  %a : i64 = add %arg0, i64 1
  %b : i64 = add %a, %arg0
  %c : i64 = sub %b, %a
  ret %c
}
)");
  ASSERT_NE(m, nullptr);
  Instruction* foreign = m->getFunction("h")->entry()->insts().front().get();
  Instruction* b = nullptr;
  for (const auto& inst : m->getFunction("f")->entry()->insts()) {
    if (inst->name() == "b") b = inst.get();
  }
  ASSERT_NE(b, nullptr);
  b->setOperand(1, foreign);
  expectMatchesReference({m.get()});
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  m.at(1, 0) = 4;
  m.at(1, 1) = 5;
  m.at(1, 2) = 6;
  std::vector<double> bias{10, 20};
  const auto out = m.matVec({1, 1, 1}, &bias);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 16.0);
  EXPECT_DOUBLE_EQ(out[1], 35.0);
}

// Naive O(n^3) reference for the blocked GEMM kernels.
Matrix naiveMatMul(const Matrix& a, bool ta, const Matrix& b, bool tb) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a.at(kk, i) : a.at(i, kk);
        const double bv = tb ? b.at(j, kk) : b.at(kk, j);
        acc += av * bv;
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix randomMatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.at(i, j) = rng.nextDouble(-1.0, 1.0);
    }
  }
  return m;
}

TEST(MatrixTest, MatMulMatchesNaiveInAllTransposeModes) {
  Rng rng(42);
  // Dimensions straddle the blocking factors (kBlockK=64, kBlockJ=256) so
  // every kernel exercises both full and partial blocks.
  const Matrix a = randomMatrix(7, 70, rng);
  const Matrix b_nn = randomMatrix(70, 300, rng);
  const Matrix b_nt = randomMatrix(300, 70, rng);
  const Matrix a_tn = randomMatrix(70, 7, rng);

  const Matrix nn = Matrix::matMul(a, false, b_nn, false);
  const Matrix nt = Matrix::matMul(a, false, b_nt, true);
  const Matrix tn = Matrix::matMul(a_tn, true, b_nn, false);

  const Matrix nn_ref = naiveMatMul(a, false, b_nn, false);
  const Matrix nt_ref = naiveMatMul(a, false, b_nt, true);
  const Matrix tn_ref = naiveMatMul(a_tn, true, b_nn, false);

  for (std::size_t i = 0; i < nn.rows(); ++i) {
    for (std::size_t j = 0; j < nn.cols(); ++j) {
      EXPECT_NEAR(nn.at(i, j), nn_ref.at(i, j), 1e-12);
    }
  }
  for (std::size_t i = 0; i < nt.rows(); ++i) {
    for (std::size_t j = 0; j < nt.cols(); ++j) {
      EXPECT_NEAR(nt.at(i, j), nt_ref.at(i, j), 1e-12);
    }
  }
  for (std::size_t i = 0; i < tn.rows(); ++i) {
    for (std::size_t j = 0; j < tn.cols(); ++j) {
      EXPECT_NEAR(tn.at(i, j), tn_ref.at(i, j), 1e-12);
    }
  }
}

TEST(MlpTest, ForwardBatchBitIdenticalToForward) {
  Rng rng(17);
  Mlp net({10, 24, 5}, rng);
  const std::size_t n = 9;
  Matrix x(n, 10);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      x.at(i, j) = rng.nextDouble(-2.0, 2.0);
    }
  }
  const Matrix batch = net.forwardBatch(x);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(x.data() + i * 10, x.data() + (i + 1) * 10);
    const std::vector<double> single = net.forward(row);
    ASSERT_EQ(single.size(), batch.cols());
    for (std::size_t j = 0; j < single.size(); ++j) {
      // Bitwise, not approximate: the GEMM preserves accumulation order.
      EXPECT_EQ(batch.at(i, j), single[j]) << "row " << i << " col " << j;
    }
  }
}

TEST(MlpTest, AccumulateGradientBatchBitIdenticalToPerSample) {
  // Two identically initialized networks, one trained with the batched
  // GEMM path and one with the per-sample loop, must stay bit-identical
  // through several Adam steps — this is what makes num_actors=1 training
  // reproduce pre-GEMM checkpoints exactly.
  Rng init_a(23);
  Rng init_b(23);
  Mlp a({8, 16, 4}, init_a);
  Mlp b({8, 16, 4}, init_b);

  Rng data(99);
  for (int iter = 0; iter < 5; ++iter) {
    const std::size_t n = 6;
    Matrix x(n, 8);
    std::vector<std::size_t> actions(n);
    std::vector<double> targets(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 8; ++j) x.at(i, j) = data.nextDouble(-1, 1);
      actions[i] = i % 4;
      targets[i] = data.nextDouble(-3, 3);
    }
    double loss_a = a.accumulateGradientBatch(x, actions, targets);
    double loss_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row(x.data() + i * 8, x.data() + (i + 1) * 8);
      loss_b += b.accumulateGradient(row, actions[i], targets[i]);
    }
    EXPECT_EQ(loss_a, loss_b);
    a.adamStep(1e-3, n);
    b.adamStep(1e-3, n);
  }
  const std::vector<double> probe{0.3, -0.1, 0.7, 0.2, -0.9, 0.5, 0.0, 1.0};
  EXPECT_EQ(a.forward(probe), b.forward(probe));
}

/// The dispatch modes this machine can run: scalar always, AVX2 if present.
std::vector<simd::SimdMode> availableSimdModes() {
  std::vector<simd::SimdMode> modes = {simd::SimdMode::Scalar};
  simd::setSimdMode(simd::SimdMode::Auto);
  if (simd::avx2Active()) modes.push_back(simd::SimdMode::Avx2);
  return modes;
}

/// A batch of 32 DQN-width states: mostly dense, with exact zeros mixed in
/// and one all-zero row.
Matrix dqnStates(Rng& rng) {
  Matrix x(32, 300);
  for (std::size_t i = 1; i < 32; ++i) {
    for (std::size_t j = 0; j < 300; ++j) {
      x.at(i, j) = rng.nextBelow(5) == 0 ? 0.0 : rng.nextDouble(-1.0, 1.0);
    }
  }
  return x;
}

TEST(MlpTest, ForwardBatchBitIdenticalToForwardAtDqnShape) {
  for (const simd::SimdMode mode : availableSimdModes()) {
    simd::setSimdMode(mode);
    Rng rng(29);
    const Mlp net({300, 256, 128, 34}, rng);
    const Matrix x = dqnStates(rng);
    const Matrix batch = net.forwardBatch(x);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const std::vector<double> row(x.data() + i * 300,
                                    x.data() + (i + 1) * 300);
      const std::vector<double> single = net.forward(row);
      EXPECT_EQ(0, std::memcmp(single.data(), batch.data() + i * 34,
                               34 * sizeof(double)))
          << "row " << i;
    }
  }
  simd::setSimdMode(simd::SimdMode::Auto);
}

TEST(MlpTest, BatchUpdateBitIdenticalToPerSampleAtDqnShape) {
  // The learner's real update — batch 32 through 300→256→128→34 with
  // ReLU-sparse hidden gradients and one-hot output gradients — against
  // the per-sample reference, over several Adam steps, compared as the
  // full optimizer state (weights, biases and both moments).
  for (const simd::SimdMode mode : availableSimdModes()) {
    simd::setSimdMode(mode);
    Rng init_a(31);
    Rng init_b(31);
    Mlp a({300, 256, 128, 34}, init_a);
    Mlp b({300, 256, 128, 34}, init_b);
    Rng data(37);
    for (int step = 0; step < 3; ++step) {
      const Matrix x = dqnStates(data);
      std::vector<std::size_t> actions(32);
      std::vector<double> targets(32);
      for (std::size_t i = 0; i < 32; ++i) {
        actions[i] = data.nextBelow(34);
        targets[i] = data.nextDouble(-3.0, 3.0);
      }
      const double loss_a = a.accumulateGradientBatch(x, actions, targets);
      double loss_b = 0.0;
      for (std::size_t i = 0; i < 32; ++i) {
        const std::vector<double> row(x.data() + i * 300,
                                      x.data() + (i + 1) * 300);
        loss_b += b.accumulateGradient(row, actions[i], targets[i]);
      }
      EXPECT_EQ(loss_a, loss_b);
      a.adamStep(1e-4, 32);
      b.adamStep(1e-4, 32);
    }
    std::ostringstream sa, sb;
    a.saveState(sa);
    b.saveState(sb);
    EXPECT_TRUE(sa.str() == sb.str()) << "optimizer state differs";
  }
  simd::setSimdMode(simd::SimdMode::Auto);
}

TEST(MlpTest, LearnsSimpleRegression) {
  // Regress head 0 toward 2*x0 + 1 on a few fixed points.
  Rng rng(3);
  Mlp net({2, 16, 2}, rng);
  for (int iter = 0; iter < 3000; ++iter) {
    const double x0 = (iter % 10) / 10.0;
    net.accumulateGradient({x0, 1.0}, 0, 2.0 * x0 + 1.0);
    net.adamStep(1e-2, 1);
  }
  const auto q = net.forward({0.5, 1.0});
  EXPECT_NEAR(q[0], 2.0, 0.15);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  Rng rng(5);
  Mlp a({4, 8, 3}, rng);
  Mlp b({4, 8, 3}, rng);  // Different weights.
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<double> x{0.1, -0.4, 0.9, 0.3};
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(MlpTest, ParameterCount) {
  Rng rng(1);
  Mlp net({300, 256, 128, 34}, rng);
  EXPECT_EQ(net.parameterCount(),
            300u * 256 + 256 + 256 * 128 + 128 + 128 * 34 + 34);
}

TEST(ReplayTest, RingBufferEviction) {
  ReplayBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    Transition t;
    t.reward = i;
    buf.push(std::move(t));
  }
  EXPECT_EQ(buf.size(), 4u);
  Rng rng(1);
  for (const Transition* t : buf.sample(64, rng)) {
    EXPECT_GE(t->reward, 4.0);  // Early entries evicted.
  }
}

TEST(ReplayTest, WrapsAtExactlyCapacityPushes) {
  ReplayBuffer buf(5);
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.reward = i;
    buf.push(std::move(t));
  }
  // Exactly capacity pushes: nothing evicted yet, all five rewards present.
  EXPECT_EQ(buf.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(buf.at(i).reward, static_cast<double>(i));
  }
  // The very next push overwrites slot 0 (the oldest entry).
  Transition t;
  t.reward = 100.0;
  buf.push(std::move(t));
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_DOUBLE_EQ(buf.at(0).reward, 100.0);
  EXPECT_DOUBLE_EQ(buf.at(1).reward, 1.0);
}

TEST(ReplayTest, SaveLoadRoundTripsMidRingCursor) {
  ReplayBuffer a(4);
  for (int i = 0; i < 6; ++i) {  // next_ ends mid-ring (slot 2)
    Transition t;
    t.reward = i;
    t.state = {0.5 * i};
    t.action = static_cast<std::size_t>(i);
    t.done = i % 2 == 0;
    t.mc_return = 2.0 * i;
    t.use_mc = true;
    a.push(std::move(t));
  }
  std::stringstream ss;
  a.save(ss);
  ReplayBuffer b(4);
  b.load(ss);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b.at(i).reward, a.at(i).reward);
    EXPECT_EQ(b.at(i).state, a.at(i).state);
    EXPECT_EQ(b.at(i).action, a.at(i).action);
    EXPECT_EQ(b.at(i).done, a.at(i).done);
    EXPECT_EQ(b.at(i).mc_return, a.at(i).mc_return);
  }
  // The restored cursor must continue the ring from the same slot: the next
  // push lands where a's seventh push would have (slot 2).
  Transition t;
  t.reward = 50.0;
  b.push(std::move(t));
  EXPECT_DOUBLE_EQ(b.at(2).reward, 50.0);
}

TEST(ReplayTest, LoadRejectsCapacityMismatch) {
  ReplayBuffer a(4);
  Transition t;
  t.reward = 1.0;
  a.push(std::move(t));
  std::stringstream ss;
  a.save(ss);
  ReplayBuffer b(8);
  EXPECT_THROW(b.load(ss), FatalError);
}

TEST(ReplayTest, EmptySampleRaisesRecoverableError) {
  ReplayBuffer buf(4);
  Rng rng(1);
  EXPECT_THROW(buf.sample(8, rng), FatalError);
}

TEST(ShardedReplayTest, ShardsFillIndependentlyAndSampleAcrossAll) {
  ShardedReplayBuffer buf(3, 8);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    std::vector<Transition> episode(2 + shard);
    for (std::size_t i = 0; i < episode.size(); ++i) {
      episode[i].reward = 10.0 * shard + i;
    }
    buf.pushEpisode(shard, std::move(episode));
  }
  EXPECT_EQ(buf.shardSize(0), 2u);
  EXPECT_EQ(buf.shardSize(1), 3u);
  EXPECT_EQ(buf.shardSize(2), 4u);
  EXPECT_EQ(buf.size(), 9u);
  Rng rng(5);
  bool saw_last_shard = false;
  for (const Transition* t : buf.sample(256, rng)) {
    ASSERT_NE(t, nullptr);
    if (t->reward >= 20.0) saw_last_shard = true;
  }
  EXPECT_TRUE(saw_last_shard) << "sampling must reach every shard";
}

TEST(ShardedReplayTest, SamplingDeterministicGivenShardContents) {
  // Identical shard contents (however the pushes were scheduled) plus an
  // identical RNG must yield identical samples — the learner's determinism
  // hinges on it.
  const auto fill = [](ShardedReplayBuffer& buf) {
    for (std::size_t shard = 0; shard < 2; ++shard) {
      std::vector<Transition> episode(3);
      for (std::size_t i = 0; i < 3; ++i) {
        episode[i].reward = 5.0 * shard + i;
      }
      buf.pushEpisode(shard, std::move(episode));
    }
  };
  ShardedReplayBuffer a(2, 4);
  ShardedReplayBuffer b(2, 4);
  fill(a);
  fill(b);
  Rng ra(9);
  Rng rb(9);
  const auto sa = a.sample(32, ra);
  const auto sb = b.sample(32, rb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i]->reward, sb[i]->reward);
  }
}

TEST(ShardedReplayTest, EmptySampleRaisesRecoverableError) {
  ShardedReplayBuffer buf(4, 8);
  Rng rng(1);
  EXPECT_THROW(buf.sample(4, rng), FatalError);
}

TEST(EmbedCacheTest, HitsOnRepeatedContentAndCountsStats) {
  ProgramSpec spec;
  spec.seed = 7;
  auto m = generateProgram(spec);
  Embedder e;
  EmbedCache cache;
  const Embedding first = cache.embed(*m, e);
  const Embedding second = cache.embed(*m, e);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, e.embedProgram(*m));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbedCacheTest, ModuleHashTracksContentNotIdentity) {
  ProgramSpec spec;
  spec.seed = 8;
  auto m1 = generateProgram(spec);
  auto m2 = generateProgram(spec);  // distinct object, identical print
  EXPECT_EQ(EmbedCache::moduleHash(*m1), EmbedCache::moduleHash(*m2));
  const std::uint64_t before = EmbedCache::moduleHash(*m1);
  runPassSequence(*m1, parsePassSequence("-mem2reg -instcombine"));
  EXPECT_NE(printModule(*m1), printModule(*m2));
  EXPECT_NE(EmbedCache::moduleHash(*m1), before);
}

TEST(EmbedCacheTest, EvictsLeastRecentlyUsed) {
  EmbedCacheConfig cfg;
  cfg.capacity = 2;
  EmbedCache cache(cfg);
  Embedder e;
  std::vector<std::unique_ptr<Module>> programs;
  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    programs.push_back(generateProgram(spec));
  }
  cache.embed(*programs[0], e);
  cache.embed(*programs[1], e);
  cache.embed(*programs[2], e);  // evicts programs[0]
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.embed(*programs[0], e);  // miss again
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DqnTest, EpsilonAnneals) {
  DqnConfig cfg;
  cfg.state_dim = 4;
  cfg.num_actions = 3;
  cfg.hidden = {8};
  cfg.epsilon_decay_steps = 100;
  DoubleDqn agent(cfg);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> s{0, 0, 0, 0};
  for (int i = 0; i < 200; ++i) agent.act(s, /*explore=*/true);
  EXPECT_NEAR(agent.epsilon(), 0.01, 1e-9);
}

TEST(DqnTest, EpsilonEndpointsAreExact) {
  DqnConfig cfg;
  cfg.state_dim = 4;
  cfg.num_actions = 3;
  cfg.hidden = {8};
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.01;
  cfg.epsilon_decay_steps = 100;
  DoubleDqn agent(cfg);
  const std::vector<double> s{0, 0, 0, 0};

  // Before any exploration the schedule sits exactly at epsilon_start.
  EXPECT_EQ(agent.epsilon(), 1.0);
  EXPECT_EQ(agent.stepsTaken(), 0u);

  // Greedy calls must not advance the schedule.
  agent.act(s, /*explore=*/false);
  EXPECT_EQ(agent.stepsTaken(), 0u);
  EXPECT_EQ(agent.epsilon(), 1.0);

  // Halfway through the decay the schedule is exactly the midpoint.
  for (int i = 0; i < 50; ++i) agent.act(s, /*explore=*/true);
  EXPECT_EQ(agent.stepsTaken(), 50u);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0 + (0.01 - 1.0) * 0.5);

  // The explore-step that lands the counter on epsilon_decay_steps reaches
  // exactly epsilon_end — not within rounding of it — and it stays there.
  for (int i = 0; i < 50; ++i) agent.act(s, /*explore=*/true);
  EXPECT_EQ(agent.stepsTaken(), 100u);
  EXPECT_EQ(agent.epsilon(), 0.01);
  agent.act(s, /*explore=*/true);
  EXPECT_EQ(agent.epsilon(), 0.01);
}

TEST(DqnTest, NoUpdatesBeforeReplayWarmup) {
  DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 2;
  cfg.hidden = {4};
  cfg.batch_size = 4;
  cfg.learn_start = 8;
  cfg.train_every = 1;
  DoubleDqn agent(cfg);
  EXPECT_EQ(agent.warmupThreshold(), 8u);

  const auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Transition t;
      t.state = {0.1, 0.2, 0.3};
      t.action = i % 2;
      t.reward = 0.5;
      t.next_state = t.state;
      t.done = false;
      agent.act(t.state, /*explore=*/true);
      agent.observe(std::move(t));
    }
  };
  feed(7);
  EXPECT_EQ(agent.trainingUpdates(), 0u) << "trained below warmup";
  feed(2);
  EXPECT_GT(agent.trainingUpdates(), 0u) << "warmup met, must train";
}

TEST(DqnTest, UpdatesArriveInBurstsAtEpisodeEnds) {
  // The training loop acts a whole episode, then observes its transitions.
  // observe() tests steps_ % train_every, and only act() advances steps_,
  // so all 15 observe() calls of an episode see one count: an episode whose
  // end count is a multiple of µ = 4 (every fourth 15-step episode) makes
  // a burst of 15 updates, and the others make none. The mean rate is still
  // one update per 4 steps. Pinned here so a change of cadence (which moves
  // every trajectory) is deliberate.
  DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 2;
  cfg.hidden = {4};
  DoubleDqn agent(cfg);
  ASSERT_EQ(cfg.train_every, 4u);
  ASSERT_EQ(agent.warmupThreshold(), 64u);
  const std::size_t kEpisode = 15;
  const std::size_t kSteps = 1000;
  std::vector<std::size_t> per_episode;
  for (std::size_t steps = 0; steps < kSteps;) {
    const std::size_t len = std::min(kEpisode, kSteps - steps);
    std::vector<Transition> episode(len);
    for (Transition& t : episode) {
      t.state = {0.1, 0.2, 0.3};
      t.next_state = t.state;
      t.action = agent.act(t.state, /*explore=*/true);
      t.reward = 0.5;
    }
    steps += len;
    const std::size_t before = agent.trainingUpdates();
    for (Transition& t : episode) agent.observe(std::move(t));
    per_episode.push_back(agent.trainingUpdates() - before);
  }
  ASSERT_EQ(per_episode.size(), 67u);
  for (std::size_t e = 0; e < per_episode.size(); ++e) {
    const std::size_t end = std::min(kEpisode * (e + 1), kSteps);
    const std::size_t len = end - kEpisode * e;
    // Past warmup (the replay holds 64 transitions during episode 5),
    // an episode trains on every one of its transitions or on none.
    const std::size_t expected = end % 4 == 0 && end - len >= 64 ? len : 0;
    EXPECT_EQ(per_episode[e], expected) << "episode " << e + 1;
  }
  // 15 bursts of 15 (episodes 8, 12, ..., 64) and the last 10-step one.
  EXPECT_EQ(agent.trainingUpdates(), 235u);
}

TEST(DqnTest, MinReplaySizeRaisesWarmupAboveLearnStart) {
  DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 2;
  cfg.hidden = {4};
  cfg.batch_size = 4;
  cfg.learn_start = 8;
  cfg.min_replay_size = 20;
  cfg.train_every = 1;
  DoubleDqn agent(cfg);
  EXPECT_EQ(agent.warmupThreshold(), 20u);
  for (int i = 0; i < 19; ++i) {
    Transition t;
    t.state = {0.0, 1.0, 0.0};
    t.action = 0;
    t.next_state = t.state;
    agent.act(t.state, /*explore=*/true);
    agent.observe(std::move(t));
  }
  EXPECT_EQ(agent.trainingUpdates(), 0u);
  // Warmup never falls below batch_size even if configured smaller.
  DqnConfig tiny = cfg;
  tiny.min_replay_size = 2;
  EXPECT_EQ(DoubleDqn(tiny).warmupThreshold(), 4u);
}

TEST(DqnTest, CheckpointRejectsV1Payloads) {
  DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 2;
  cfg.hidden = {4};
  DoubleDqn a(cfg);
  std::stringstream ss;
  a.saveCheckpoint(ss);
  std::string payload = ss.str();
  ASSERT_NE(payload.find("dqn-ckpt v2"), std::string::npos);
  payload.replace(payload.find("v2"), 2, "v1");
  // A v1 checkpoint predates the ε-schedule fix: loading must fail loudly
  // (recoverably) instead of resuming a silently diverging run.
  DoubleDqn b(cfg);
  std::istringstream is(payload);
  ScopedFaultTrap trap;
  EXPECT_THROW(b.loadCheckpoint(is), FatalError);
}

TEST(DqnTest, SolvesChainMdp) {
  // A 5-state chain: action 1 moves right (reward 0, +1 at the end),
  // action 0 resets to the start with reward 0. Optimal: always go right.
  constexpr std::size_t kStates = 5;
  DqnConfig cfg;
  cfg.state_dim = kStates;
  cfg.num_actions = 2;
  cfg.hidden = {32};
  cfg.lr = 5e-3;
  cfg.gamma = 0.9;
  cfg.epsilon_decay_steps = 2000;
  cfg.learn_start = 32;
  cfg.train_every = 1;
  cfg.target_sync_every = 50;
  cfg.seed = 11;
  DoubleDqn agent(cfg);

  const auto one_hot = [](std::size_t s) {
    std::vector<double> v(kStates, 0.0);
    v[s] = 1.0;
    return v;
  };

  std::size_t s = 0;
  for (int step = 0; step < 6000; ++step) {
    const std::size_t a = agent.act(one_hot(s), true);
    std::size_t next = a == 1 ? s + 1 : 0;
    double reward = 0.0;
    bool done = false;
    if (next >= kStates - 1) {
      reward = 1.0;
      done = true;
      next = kStates - 1;
    }
    Transition t{one_hot(s), a, reward, one_hot(next), done};
    agent.observe(std::move(t));
    s = done ? 0 : next;
  }
  // The greedy policy must walk right from every state.
  for (std::size_t st = 0; st + 1 < kStates; ++st) {
    EXPECT_EQ(agent.actGreedy(one_hot(st)), 1u) << "state " << st;
  }
}

TEST(DqnTest, ModelRoundTripPreservesPolicy) {
  DqnConfig cfg;
  cfg.state_dim = 6;
  cfg.num_actions = 4;
  cfg.hidden = {12};
  cfg.seed = 3;
  DoubleDqn a(cfg);
  // Perturb by training on garbage so weights differ from a fresh init.
  for (int i = 0; i < 100; ++i) {
    Transition t;
    t.state = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    t.action = i % 4;
    t.reward = (i % 3) - 1.0;
    t.next_state = t.state;
    t.done = i % 5 == 0;
    a.observe(std::move(t));
  }
  std::stringstream ss;
  a.saveModel(ss);
  DqnConfig cfg2 = cfg;
  cfg2.seed = 77;
  DoubleDqn b(cfg2);
  b.loadModel(ss);
  const std::vector<double> probe{0.5, -0.2, 0.1, 0.9, -0.7, 0.0};
  EXPECT_EQ(a.qValues(probe), b.qValues(probe));
}

}  // namespace
}  // namespace posetrl
