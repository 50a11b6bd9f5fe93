// Tests for the POSET-RL core: the Oz sequence tables, ODG construction
// (critical nodes, walks), the environment's reward accounting, and the
// end-to-end train -> deploy loop.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "core/environment.h"
#include "core/odg.h"
#include "core/oz_sequence.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "faults/injection.h"
#include "interp/interpreter.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "passes/pass.h"
#include "target/size_model.h"
#include "workloads/generator.h"
#include "workloads/suites.h"

namespace posetrl {
namespace {

TEST(OzSequenceTest, TableShapes) {
  EXPECT_GT(ozPassNames().size(), 80u);
  EXPECT_EQ(manualSubSequences().size(), 15u);
  EXPECT_EQ(odgSubSequences().size(), 34u);
  // Every sub-sequence resolves to runnable passes.
  for (const auto& sub : manualSubSequences()) {
    for (const auto& p : sub.passes) EXPECT_NE(createPass(p), nullptr) << p;
  }
  for (const auto& sub : odgSubSequences()) {
    for (const auto& p : sub.passes) EXPECT_NE(createPass(p), nullptr) << p;
  }
}

TEST(OzSequenceTest, UniquePassCountMatchesPaperScale) {
  // The paper: "Oz of LLVM has 90 transformation passes, among which 54
  // are unique". Our reconstructed Table I is within a couple of entries
  // of that (OCR-garbled rows restored from LLVM-10).
  const auto& seq = ozPassNames();
  std::set<std::string> unique(seq.begin(), seq.end());
  EXPECT_GE(seq.size(), 88u);
  EXPECT_LE(seq.size(), 94u);
  EXPECT_GE(unique.size(), 50u);
  EXPECT_LE(unique.size(), 56u);
}

TEST(OdgTest, CriticalNodesMatchPaper) {
  OzDependenceGraph odg(ozPassNames());
  // Paper Section IV-B: simplifycfg, instcombine, loop-simplify are the
  // critical nodes at k >= 8 with degrees 11, 10 and 8.
  const auto critical = odg.criticalNodes(8);
  const std::set<std::string> critical_set(critical.begin(), critical.end());
  EXPECT_TRUE(critical_set.count("simplifycfg"));
  EXPECT_TRUE(critical_set.count("instcombine"));
  EXPECT_TRUE(critical_set.count("loop-simplify"));
  EXPECT_EQ(critical_set.size(), 3u);
  EXPECT_EQ(odg.degree("simplifycfg"), 11u);
  EXPECT_EQ(odg.degree("instcombine"), 10u);
  EXPECT_EQ(odg.degree("loop-simplify"), 8u);
}

TEST(OdgTest, WalksMatchTableThreeStructure) {
  OzDependenceGraph odg(ozPassNames());
  const auto walks = odg.subSequenceWalks(8);
  EXPECT_GE(walks.size(), 20u);
  // Each walk starts at a critical node and contains no other critical
  // node.
  const auto critical = odg.criticalNodes(8);
  const std::set<std::string> crit(critical.begin(), critical.end());
  for (const auto& walk : walks) {
    ASSERT_FALSE(walk.empty());
    EXPECT_TRUE(crit.count(walk.front()));
    for (std::size_t i = 1; i < walk.size(); ++i) {
      EXPECT_FALSE(crit.count(walk[i]));
    }
  }
  // Several signature rows of Table III appear verbatim among the walks.
  const std::set<std::vector<std::string>> walk_set(walks.begin(),
                                                    walks.end());
  EXPECT_TRUE(walk_set.count({"instcombine"}));
  EXPECT_TRUE(walk_set.count({"simplifycfg"}));
  EXPECT_TRUE(walk_set.count({"instcombine", "tailcallelim"}));
  EXPECT_TRUE(walk_set.count(
      {"instcombine", "jump-threading", "correlated-propagation", "dse"}));
  EXPECT_TRUE(walk_set.count({"simplifycfg", "reassociate"}));
}

TEST(OdgTest, EdgeSemantics) {
  OzDependenceGraph odg({"a", "b", "a", "c"});
  EXPECT_TRUE(odg.successors("a").count("b"));
  EXPECT_TRUE(odg.successors("a").count("c"));
  EXPECT_TRUE(odg.successors("b").count("a"));
  EXPECT_TRUE(odg.predecessors("a").count("b"));
  EXPECT_EQ(odg.degree("a"), 3u);  // succ {b, c} + pred {b}.
}

TEST(EnvTest, RewardTracksSizeReduction) {
  ProgramSpec spec;
  spec.seed = 42;
  spec.kernels = 4;
  auto program = generateProgram(spec);

  EnvConfig cfg;
  PhaseOrderEnv env(*program, odgSubSequences(), cfg);
  Embedding s0 = env.reset();
  EXPECT_EQ(s0.size(), 300u);
  const double size0 = env.currentSize();
  EXPECT_DOUBLE_EQ(size0, env.baseSize());

  // Action 24 (row 25 in Table III) contains inline/sroa/early-cse —
  // a strong size reducer on our redundancy-rich programs.
  double total_reward = 0.0;
  PhaseOrderEnv::StepResult sr = env.step(23);
  total_reward += sr.reward;
  sr = env.step(25);
  total_reward += sr.reward;
  EXPECT_LT(env.currentSize(), size0);
  EXPECT_GT(total_reward, 0.0) << "shrinking the program must pay reward";
}

TEST(EnvTest, EpisodeTerminatesAtConfiguredLength) {
  ProgramSpec spec;
  spec.seed = 8;
  spec.kernels = 2;
  auto program = generateProgram(spec);
  EnvConfig cfg;
  cfg.episode_length = 3;
  PhaseOrderEnv env(*program, manualSubSequences(), cfg);
  env.reset();
  EXPECT_FALSE(env.step(0).done);
  EXPECT_FALSE(env.step(1).done);
  EXPECT_TRUE(env.step(2).done);
}

TEST(EnvTest, ResetRestoresPristineProgram) {
  ProgramSpec spec;
  spec.seed = 21;
  auto program = generateProgram(spec);
  EnvConfig cfg;
  PhaseOrderEnv env(*program, odgSubSequences(), cfg);
  env.reset();
  env.step(24);
  env.step(7);
  const double optimized = env.currentSize();
  env.reset();
  EXPECT_DOUBLE_EQ(env.currentSize(), env.baseSize());
  EXPECT_LE(optimized, env.baseSize());
}

// --- the step no-op memo ---------------------------------------------------

/// Never changes the IR; counts its runs, so a test sees which steps reached
/// the sandbox and which the no-op memo answered.
std::size_t counting_noop_runs = 0;

class CountingNoopPass : public Pass {
 public:
  std::string_view name() const override { return "test-counting-noop"; }
  bool run(Module&) override {
    ++counting_noop_runs;
    return false;
  }
};

class NoopMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registerPass("test-counting-noop",
                 [] { return std::make_unique<CountingNoopPass>(); });
    registerFaultInjectionPasses();
    counting_noop_runs = 0;
    ProgramSpec spec;
    spec.seed = 77;
    spec.kernels = 2;
    program_ = generateProgram(spec);
    actions_ = {SubSequence{1, {"test-counting-noop"}},
                SubSequence{2, {"fault-throw"}}};
  }

  static constexpr std::size_t kNoop = 0;
  static constexpr std::size_t kThrow = 1;
  std::unique_ptr<Module> program_;
  std::vector<SubSequence> actions_;
};

TEST_F(NoopMemoTest, RepeatAtSameStampRunsOnce) {
  PhaseOrderEnv env(*program_, actions_, EnvConfig{});
  const Embedding s0 = env.reset();
  for (int i = 0; i < 3; ++i) {
    const PhaseOrderEnv::StepResult sr = env.step(kNoop);
    EXPECT_FALSE(sr.faulted);
    EXPECT_EQ(sr.reward, 0.0);
    EXPECT_EQ(sr.state, s0);
  }
  EXPECT_EQ(counting_noop_runs, 1u);
  EXPECT_FALSE(env.actionMask()[kNoop]);
}

TEST_F(NoopMemoTest, WorkingModuleAccessForcesRerun) {
  PhaseOrderEnv env(*program_, actions_, EnvConfig{});
  env.reset();
  env.step(kNoop);
  env.workingModule();  // may mutate: bumps the stamp
  env.step(kNoop);
  EXPECT_EQ(counting_noop_runs, 2u);
  env.step(kNoop);
  EXPECT_EQ(counting_noop_runs, 2u);
}

TEST_F(NoopMemoTest, FaultRollbackForcesRerun) {
  PhaseOrderEnv env(*program_, actions_, EnvConfig{});
  env.reset();
  env.step(kNoop);
  // The rollback restores the same content (and stamp) as new objects.
  EXPECT_TRUE(env.step(kThrow).faulted);
  env.step(kNoop);
  EXPECT_EQ(counting_noop_runs, 2u);
}

TEST_F(NoopMemoTest, ResetForcesRerun) {
  PhaseOrderEnv env(*program_, actions_, EnvConfig{});
  env.reset();
  env.step(kNoop);
  env.reset();  // restores the pristine content as new objects
  env.step(kNoop);
  EXPECT_EQ(counting_noop_runs, 2u);
}

TEST_F(NoopMemoTest, WithoutContractsNeverSkips) {
  EnvConfig cfg;
  cfg.check_contracts = false;
  PhaseOrderEnv env(*program_, actions_, cfg);
  env.reset();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(env.step(kNoop).faulted);
  EXPECT_EQ(counting_noop_runs, 3u);
}

TEST_F(NoopMemoTest, ExpiredDeadlineStillReportsDeadlineExpired) {
  EnvConfig cfg;
  cfg.sandbox.deadline = Deadline::after(std::chrono::milliseconds(300));
  PhaseOrderEnv env(*program_, actions_, cfg);
  env.reset();
  ASSERT_FALSE(env.step(kNoop).faulted) << "deadline too tight for one step";
  while (!cfg.sandbox.deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const PhaseOrderEnv::StepResult sr = env.step(kNoop);
  EXPECT_TRUE(sr.faulted);
  EXPECT_EQ(sr.fault.kind, FaultKind::DeadlineExpired);
  EXPECT_FALSE(env.actionMask()[kNoop]);
}

TEST(TrainDeployTest, EndToEndImprovesOverUnoptimized) {
  // Tiny corpus + small budget: the policy must at least produce valid,
  // semantics-preserving, smaller-than-unoptimized binaries.
  std::vector<std::unique_ptr<Module>> corpus_storage;
  std::vector<const Module*> corpus;
  for (std::uint64_t seed = 300; seed < 304; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 3;
    corpus_storage.push_back(generateProgram(spec));
    corpus.push_back(corpus_storage.back().get());
  }

  TrainConfig cfg;
  cfg.total_steps = 120;
  cfg.env.episode_length = 5;
  cfg.agent.num_actions = odgSubSequences().size();
  cfg.agent.epsilon_decay_steps = 100;
  cfg.agent.seed = 5;
  TrainResult result = trainAgent(corpus, cfg);
  EXPECT_GT(result.stats.episodes, 10u);
  EXPECT_EQ(result.stats.steps, 120u);

  // Deploy on a held-out program.
  ProgramSpec held;
  held.seed = 999;
  held.kernels = 3;
  auto program = generateProgram(held);
  const ExecResult before = runModule(*program);
  ASSERT_TRUE(before.ok) << before.trap;

  PolicyRollout rollout =
      applyPolicy(*result.agent, *program, odgSubSequences(), cfg.env);
  ASSERT_NE(rollout.optimized, nullptr);
  EXPECT_EQ(rollout.action_sequence.size(),
            static_cast<std::size_t>(cfg.env.episode_length));
  const auto vr = verifyModule(*rollout.optimized);
  EXPECT_TRUE(vr.ok()) << vr.message();
  const ExecResult after = runModule(*rollout.optimized);
  EXPECT_EQ(before.fingerprint(), after.fingerprint());

  SizeModel sm(TargetInfo::x86_64());
  EXPECT_LT(sm.objectBytes(*rollout.optimized), sm.objectBytes(*program));
}

TEST(SuiteTest, SuitesAreWellFormed) {
  for (const SuiteSpec& suite :
       {spec2017Suite(), spec2006Suite(), mibenchSuite()}) {
    EXPECT_GE(suite.programs.size(), 12u) << suite.name;
    std::set<std::string> names;
    for (const ProgramSpec& p : suite.programs) {
      EXPECT_TRUE(names.insert(p.name).second) << "dup name " << p.name;
    }
  }
  const SuiteSpec corpus = trainingCorpus(130);
  EXPECT_EQ(corpus.programs.size(), 130u);
}

TEST(SuiteTest, SampleSuiteProgramsRunCleanly) {
  // One representative program per suite (full sweeps live in benches).
  for (const SuiteSpec& suite :
       {spec2017Suite(), spec2006Suite(), mibenchSuite()}) {
    auto m = generateProgram(suite.programs[0]);
    const auto vr = verifyModule(*m);
    ASSERT_TRUE(vr.ok()) << suite.name << ": " << vr.message();
    const ExecResult r = runModule(*m);
    EXPECT_TRUE(r.ok) << suite.name << " trapped: " << r.trap;
  }
}

TEST(PipelineComparisonTest, OzShrinksAndO3Speeds) {
  ProgramSpec spec;
  spec.seed = 1234;
  spec.kernels = 8;
  auto program = generateProgram(spec);
  auto oz = applyPipeline(*program, ozPassNames());
  auto o3 = applyPipeline(*program, o3PassNames());
  ASSERT_TRUE(verifyModule(*oz).ok()) << verifyModule(*oz).message();
  ASSERT_TRUE(verifyModule(*o3).ok()) << verifyModule(*o3).message();

  const ExecResult base_run = runModule(*program);
  const ExecResult oz_run = runModule(*oz);
  const ExecResult o3_run = runModule(*o3);
  ASSERT_TRUE(base_run.ok && oz_run.ok && o3_run.ok);
  EXPECT_EQ(base_run.fingerprint(), oz_run.fingerprint());
  EXPECT_EQ(base_run.fingerprint(), o3_run.fingerprint());

  SizeModel sm(TargetInfo::x86_64());
  // Both shrink vs unoptimized; both run faster than unoptimized.
  EXPECT_LT(sm.objectBytes(*oz), sm.objectBytes(*program));
  EXPECT_LT(oz_run.cycles, base_run.cycles);
  EXPECT_LT(o3_run.cycles, base_run.cycles);
}

}  // namespace
}  // namespace posetrl
