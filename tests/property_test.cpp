// Property tests: for a population of generated programs, every pass (and
// several pass pipelines, including the full Oz sequence and random
// sub-sequence orderings) must keep the IR verifier-clean and preserve the
// program's observable behaviour under the interpreter.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "faults/injection.h"
#include "target/size_model.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lint/instrumentation.h"
#include "passes/pass.h"
#include "support/rng.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

ProgramSpec specForSeed(std::uint64_t seed) {
  ProgramSpec spec;
  spec.name = "prop" + std::to_string(seed);
  spec.seed = seed;
  spec.kernels = 3 + static_cast<int>(seed % 4);
  return spec;
}

ExecResult execute(Module& m, std::uint64_t input_seed = 7) {
  ExecOptions opts;
  opts.input_seed = input_seed;
  return runModule(m, opts);
}

TEST(GeneratorProperty, ProgramsVerifyAndRun) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto m = generateProgram(specForSeed(seed));
    const auto vr = verifyModule(*m);
    ASSERT_TRUE(vr.ok()) << "seed " << seed << ":\n" << vr.message();
    const ExecResult r = execute(*m);
    EXPECT_TRUE(r.ok) << "seed " << seed << " trapped: " << r.trap;
    EXPECT_GT(r.steps, 50u) << "seed " << seed << " degenerate program";
  }
}

TEST(GeneratorProperty, DeterministicPerSeed) {
  auto m1 = generateProgram(specForSeed(5));
  auto m2 = generateProgram(specForSeed(5));
  EXPECT_EQ(printModule(*m1), printModule(*m2));
  auto m3 = generateProgram(specForSeed(6));
  EXPECT_NE(printModule(*m1), printModule(*m3));
}

TEST(GeneratorProperty, ProgramsRoundTripThroughParser) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto m = generateProgram(specForSeed(seed));
    const std::string printed = printModule(*m);
    std::string err;
    auto reparsed = parseModule(printed, &err);
    ASSERT_NE(reparsed, nullptr) << "seed " << seed << ": " << err;
    EXPECT_EQ(printModule(*reparsed), printed);
    EXPECT_EQ(execute(*m).fingerprint(), execute(*reparsed).fingerprint());
  }
}

/// Names minted by passes ("tN", "label.N") come from per-function counters
/// that a printed module does not carry: the clone must copy them and the
/// parser must re-derive them, or -Oz on the copy mints names that already
/// exist and its output no longer parses ("redefinition of %t1").
TEST(GeneratorProperty, OzOutputRoundTripsAfterCloneOrParse) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto m = generateProgram(specForSeed(seed));
    std::vector<std::unique_ptr<Module>> copies;
    copies.push_back(cloneModule(*m));
    copies.push_back(parseModule(printModule(*m)));
    ASSERT_NE(copies.back(), nullptr);
    copies.push_back(cloneModule(*copies.back()));
    for (std::size_t i = 0; i < copies.size(); ++i) {
      runPassSequence(*copies[i], ozPassNames());
      const std::string printed = printModule(*copies[i]);
      std::string err;
      auto reparsed = parseModule(printed, &err);
      ASSERT_NE(reparsed, nullptr) << "seed " << seed << " copy " << i << ": "
                                   << err;
      EXPECT_EQ(printModule(*reparsed), printed);
    }
  }
}

TEST(GeneratorProperty, ParserRederivesNameCounters) {
  auto m = generateProgram(specForSeed(3));
  auto parsed = parseModule(printModule(*m));
  ASSERT_NE(parsed, nullptr);
  for (const auto& f : parsed->functions()) {
    if (f->isDeclaration()) continue;
    const std::string fresh_value = f->nextValueName();
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        EXPECT_NE(inst->name(), fresh_value) << "in @" << f->name();
      }
    }
  }
}

/// One pass applied to one generated program.
class SinglePassProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SinglePassProperty, PreservesSemantics) {
  const auto& [pass_name, seed] = GetParam();
  auto m = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  const ExecResult before = execute(*m);
  ASSERT_TRUE(before.ok) << before.trap;

  PassInstrumentation instr;  // Default options: verify only.
  runPassSequence(*m, {pass_name}, instr);
  ASSERT_TRUE(instr.clean()) << instr.toText();

  const ExecResult after = execute(*m);
  EXPECT_EQ(before.fingerprint(), after.fingerprint())
      << "pass -" << pass_name << " on seed " << seed
      << "\nbefore: ok=" << before.ok << " ret=" << before.return_value
      << " obs=" << before.observed << "\nafter:  ok=" << after.ok
      << " trap=" << after.trap << " ret=" << after.return_value
      << " obs=" << after.observed;
}

std::vector<std::string> allNamesVector() { return allPassNames(); }

INSTANTIATE_TEST_SUITE_P(
    AllPasses, SinglePassProperty,
    ::testing::Combine(::testing::ValuesIn(allNamesVector()),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<SinglePassProperty::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

/// Whole pipelines on generated programs.
class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, OzSequencePreservesSemantics) {
  const int seed = GetParam();
  auto m = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  const ExecResult before = execute(*m);
  ASSERT_TRUE(before.ok) << before.trap;
  PassInstrumentation instr;  // Default options: verify only.
  runPassSequence(*m, ozPassNames(), instr);
  ASSERT_TRUE(instr.clean()) << instr.toText();
  const ExecResult after = execute(*m);
  EXPECT_EQ(before.fingerprint(), after.fingerprint())
      << "Oz pipeline broke seed " << seed << " trap=" << after.trap;
}

TEST_P(PipelineProperty, OzSequenceShrinksModeledObjectSize) {
  const int seed = GetParam();
  auto m = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  SizeModel sm(TargetInfo::x86_64());
  const double before = sm.objectBytes(*m);
  runPassSequence(*m, ozPassNames());
  // Oz is a size pipeline: modeled object bytes must shrink on these
  // redundancy-rich programs. (Instruction count is the wrong metric here:
  // the vectorizer's unroll-and-mark representation multiplies instruction
  // count while shrinking encoded bytes.)
  EXPECT_LT(sm.objectBytes(*m), before)
      << "Oz failed to shrink seed " << seed;
}

TEST_P(PipelineProperty, RandomSubSequenceOrderings) {
  const int seed = GetParam();
  auto base = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  const ExecResult before = execute(*base);
  ASSERT_TRUE(before.ok);
  Rng rng(static_cast<std::uint64_t>(seed) * 77 + 3);
  const auto& manual = manualSubSequences();
  for (int trial = 0; trial < 3; ++trial) {
    auto m = cloneModule(*base);
    // Random ordering of 6 random manual sub-sequences.
    std::vector<std::string> passes;
    for (int k = 0; k < 6; ++k) {
      const auto& sub = manual[rng.nextBelow(manual.size())];
      for (const auto& p : sub.passes) passes.push_back(p);
    }
    PassInstrumentation instr;  // Default options: verify only.
    runPassSequence(*m, passes, instr);
    ASSERT_TRUE(instr.clean())
        << "trial " << trial << ":\n" << instr.toText();
    const ExecResult after = execute(*m);
    EXPECT_EQ(before.fingerprint(), after.fingerprint())
        << "random ordering broke seed " << seed << " trial " << trial;
  }
}

TEST_P(PipelineProperty, OdgSubSequenceOrderings) {
  const int seed = GetParam();
  auto base = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  const ExecResult before = execute(*base);
  ASSERT_TRUE(before.ok);
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 5);
  const auto& odg = odgSubSequences();
  for (int trial = 0; trial < 2; ++trial) {
    auto m = cloneModule(*base);
    std::vector<std::string> passes;
    for (int k = 0; k < 6; ++k) {
      const auto& sub = odg[rng.nextBelow(odg.size())];
      for (const auto& p : sub.passes) passes.push_back(p);
    }
    PassInstrumentation instr;  // Default options: verify only.
    runPassSequence(*m, passes, instr);
    ASSERT_TRUE(instr.clean())
        << "trial " << trial << ":\n" << instr.toText();
    const ExecResult after = execute(*m);
    EXPECT_EQ(before.fingerprint(), after.fingerprint())
        << "ODG ordering broke seed " << seed << " trial " << trial;
  }
}

std::vector<std::uint64_t> bitsOf(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// The environment's no-op memo is invisible: stepping random action
/// sequences, with deliberate repeats and fault-injection actions, gives the
/// same results as a reference environment that calls workingModule() before
/// every step, which moves the memo key so every step runs the sandbox.
TEST_P(PipelineProperty, EnvNoopMemoMatchesRerunningReference) {
  const int seed = GetParam();
  registerFaultInjectionPasses();
  std::vector<SubSequence> actions = odgSubSequences();
  for (const char* fault : {"fault-throw", "fault-bloat", "fault-miscompile"}) {
    actions.push_back(
        SubSequence{static_cast<int>(actions.size()) + 1, {fault}});
  }
  auto program = generateProgram(specForSeed(static_cast<std::uint64_t>(seed)));
  PhaseOrderEnv env(*program, actions, EnvConfig{});
  PhaseOrderEnv reference(*program, actions, EnvConfig{});
  ASSERT_EQ(bitsOf(env.reset()), bitsOf(reference.reset()));

  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  std::size_t action = 0;
  std::size_t repeated_noops = 0;  // steps the memo may answer
  bool last_noop = false;
  for (int step = 0; step < 45; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const std::size_t previous = action;
    if (!rng.nextBool(0.6)) action = rng.nextBelow(actions.size());
    if (action == previous && last_noop) ++repeated_noops;

    const Module& m = env.currentModule();
    const auto key = std::make_pair(m.contentStamp(), m.irGeneration());
    reference.workingModule();
    const PhaseOrderEnv::StepResult a = env.step(action);
    const PhaseOrderEnv::StepResult b = reference.step(action);
    last_noop = !a.faulted &&
                key == std::make_pair(m.contentStamp(), m.irGeneration());

    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.reward),
              std::bit_cast<std::uint64_t>(b.reward));
    EXPECT_EQ(bitsOf(a.state), bitsOf(b.state));
    EXPECT_EQ(a.faulted, b.faulted);
    EXPECT_EQ(a.fault.kind, b.fault.kind);
    EXPECT_EQ(a.done, b.done);
    if (a.done) {
      last_noop = false;
      ASSERT_EQ(bitsOf(env.reset()), bitsOf(reference.reset()));
    }
  }
  EXPECT_EQ(printModule(env.currentModule()),
            printModule(reference.currentModule()));
  EXPECT_GT(repeated_noops, 0u) << "no step exercised the memo";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace posetrl
