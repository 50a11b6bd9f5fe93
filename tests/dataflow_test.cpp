// Tests for the dataflow-analysis framework: the new analyses (liveness,
// reaching defs, value ranges), the hash-validated AnalysisManager
// cache (including cache hits from passes routed through the ambient
// manager), the pass-contract checker's static miscompile attribution, the
// fast per-pass verifier, the static feature extractor as an environment
// observation space, and a verifier-as-oracle fuzz sweep over every
// registered pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/fast_verifier.h"
#include "analysis/liveness.h"
#include "analysis/reaching_defs.h"
#include "analysis/static_features.h"
#include "analysis/value_range.h"
#include "core/environment.h"
#include "core/oz_sequence.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "faults/injection.h"
#include "faults/sandbox.h"
#include "interp/interpreter.h"
#include "ir/basic_block.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lint/instrumentation.h"
#include "pass_soup.h"
#include "passes/pass.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

std::unique_ptr<Module> parseOrDie(const char* text) {
  std::string err;
  auto m = parseModule(text, &err);
  EXPECT_NE(m, nullptr) << err;
  return m;
}

BasicBlock* blockByName(Function& f, const std::string& name) {
  for (const auto& b : f.blocks()) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

Instruction* firstOpcode(Function& f, Opcode op) {
  for (const auto& b : f.blocks()) {
    for (const auto& inst : b->insts()) {
      if (inst->opcode() == op) return inst.get();
    }
  }
  return nullptr;
}

// --- liveness ---------------------------------------------------------------

TEST(LivenessTest, ValuesLiveAcrossBlocks) {
  auto m = parseOrDie(R"(
module "live"
define @f : fn(i64) -> i64 internal {
block entry:
  %a : i64 = add %arg0, i64 1
  %b : i64 = add %arg0, i64 2
  br label mid
block mid:
  %c : i64 = add %a, %b
  br label exit
block exit:
  ret %c
}
)");
  Function& f = *m->getFunction("f");
  LivenessInfo live(f);

  BasicBlock* entry = blockByName(f, "entry");
  BasicBlock* mid = blockByName(f, "mid");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(mid, nullptr);
  const Value* a = entry->insts().front().get();
  const Value* b = std::next(entry->insts().begin())->get();
  const Value* c = mid->insts().front().get();

  // %a and %b are defined in entry, consumed in mid.
  EXPECT_EQ(live.liveOut(entry).count(a), 1u);
  EXPECT_EQ(live.liveOut(entry).count(b), 1u);
  EXPECT_EQ(live.liveIn(mid).count(a), 1u);
  EXPECT_EQ(live.liveIn(mid).count(b), 1u);
  // %c flows into exit; %a and %b die in mid.
  EXPECT_EQ(live.liveOut(mid).count(c), 1u);
  EXPECT_EQ(live.liveOut(mid).count(a), 0u);
  // The argument is upward-exposed in entry.
  EXPECT_EQ(live.liveIn(entry).count(f.arg(0)), 1u);
  // %a and %b are simultaneously live.
  EXPECT_GE(live.maxPressure(), 2u);
}

// --- reaching definitions ---------------------------------------------------

TEST(ReachingDefsTest, MayReachSetsPerBaseObject) {
  auto m = parseOrDie(R"(
module "reach"
define @main : fn(i1) -> i64 external {
block e:
  %p : ptr<i64> = alloca i64
  %q : ptr<i64> = alloca i64
  store i64 5, %p
  store i64 9, %q
  condbr %arg0, label a, label j
block a:
  store i64 7, %p
  br label j
block j:
  %v : i64 = load %p
  %w : i64 = load %q
  %s : i64 = add %v, %w
  ret %s
}
)");
  Function& f = *m->getFunction("main");
  ReachingDefs rd(f);

  EXPECT_EQ(rd.loadCount(), 2u);
  EXPECT_EQ(rd.storeCount(), 3u);

  BasicBlock* j = blockByName(f, "j");
  ASSERT_NE(j, nullptr);
  const Instruction* load_p = j->insts().begin()->get();
  const Instruction* load_q = std::next(j->insts().begin())->get();
  ASSERT_EQ(load_p->opcode(), Opcode::Load);
  ASSERT_EQ(load_q->opcode(), Opcode::Load);

  // Two stores to %p may reach the first load (entry store + branch store);
  // only one store to %q reaches the second.
  EXPECT_EQ(rd.reachingStores(load_p).size(), 2u);
  EXPECT_EQ(rd.reachingStores(load_q).size(), 1u);
  EXPECT_EQ(rd.singleReachingLoads(), 1u);

  // Pointer bases trace through to the allocas.
  const Instruction* alloca_p = firstOpcode(f, Opcode::Alloca);
  EXPECT_EQ(ReachingDefs::baseObject(load_p->operand(0)), alloca_p);
}

// --- value ranges -----------------------------------------------------------

TEST(ValueRangeTest, ConstantsComposeAndUnknownsWiden) {
  auto m = parseOrDie(R"(
module "vr"
define @f : fn(i64) -> i64 internal {
block e:
  %x : i64 = add i64 3, i64 4
  %y : i64 = add %x, %x
  %z : i64 = add %y, %arg0
  ret %z
}
)");
  Function& f = *m->getFunction("f");
  ValueRanges vr(f);

  BasicBlock* e = blockByName(f, "e");
  const Value* x = e->insts().begin()->get();
  const Value* y = std::next(e->insts().begin())->get();
  const Value* z = std::next(e->insts().begin(), 2)->get();

  EXPECT_TRUE(vr.range(x).isConstant());
  EXPECT_EQ(vr.range(x).lo, 7);
  EXPECT_TRUE(vr.range(y).isConstant());
  EXPECT_EQ(vr.range(y).lo, 14);
  // Adding an unknown argument widens to (at least near) the full range.
  EXPECT_FALSE(vr.range(z).isConstant());
  EXPECT_GE(vr.boundedCount(), 2u);
  EXPECT_EQ(vr.trackedCount(), 3u);
}

// --- AnalysisManager caching ------------------------------------------------

TEST(AnalysisManagerTest, CachesUntilMutationInvalidates) {
  auto m = parseOrDie(R"(
module "am"
define @f : fn(i64) -> i64 internal {
block e:
  %x : i64 = add %arg0, i64 1
  ret %x
}
)");
  Function& f = *m->getFunction("f");
  AnalysisManager am;

  am.dominators(f);
  EXPECT_EQ(am.stats().misses, 1u);
  am.dominators(f);
  EXPECT_EQ(am.stats().hits, 1u);
  // loopInfo re-queries dominators (hit) and builds loops (miss).
  am.loopInfo(f);
  EXPECT_EQ(am.stats().hits, 2u);
  EXPECT_EQ(am.stats().misses, 2u);
  am.liveness(f);
  am.liveness(f);
  EXPECT_EQ(am.stats().misses, 3u);
  EXPECT_EQ(am.stats().hits, 3u);

  // An instruction-level edit changes the content hash: the next query
  // detects staleness. Invalidation is two-level — the block graph is
  // untouched, so the dominator tree survives and only instruction-level
  // analyses (here liveness) are dropped and rebuilt.
  Instruction* add = firstOpcode(f, Opcode::Add);
  add->setOperand(1, m->i64Const(99));
  am.dominators(f);
  EXPECT_EQ(am.stats().invalidations, 1u);
  EXPECT_EQ(am.stats().hits, 4u);    // dominators kept: cfg hash unchanged
  am.liveness(f);
  EXPECT_EQ(am.stats().misses, 4u);  // liveness rebuilt
}

TEST(AnalysisManagerTest, RoutedPassesHitTheAmbientCache) {
  // Satellite check for the routing work: loop passes query the ambient
  // manager, so re-running a pass at fixpoint serves every dominator/loop
  // query from cache — no rebuilds, no invalidations.
  ProgramSpec spec;
  spec.seed = 4242;
  spec.kernels = 3;
  auto m = generateProgram(spec);

  AnalysisManager am;
  AnalysisScope scope(am);
  runPassSequence(*m, {"loop-simplify", "licm"});  // mutates, populates
  runPassSequence(*m, {"licm"});                   // reaches fixpoint
  const AnalysisCacheStats s2 = am.stats();
  runPassSequence(*m, {"licm"});                   // identical queries
  const AnalysisCacheStats s3 = am.stats();

  EXPECT_GT(s3.hits, s2.hits);
  EXPECT_EQ(s3.misses, s2.misses);
  EXPECT_EQ(s3.invalidations, s2.invalidations);
  EXPECT_GT(s3.hitRate(), 0.0);
}

// --- pass-contract checker --------------------------------------------------

TEST(ContractCheckerTest, MiscompileAttributedStaticallyInSandbox) {
  // fault-miscompile rewrites a constant while declaring all analyses
  // preserved: the boundary fingerprint diff flags it without any
  // interpreter run (the sandbox oracle stays off).
  registerFaultInjectionPasses();
  auto m = parseOrDie(R"(
module "t"
define @main : fn() -> i64 external {
block e:
  %x : i64 = add i64 1, i64 2
  ret %x
}
)");
  const std::string before = printModule(*m);

  SandboxConfig sc;  // verify + contracts default-on; oracle off.
  ASSERT_FALSE(sc.oracle);
  SandboxOutcome out = runActionSandboxed(m, {"fault-miscompile"}, sc);

  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.fault.kind, FaultKind::ContractViolation);
  EXPECT_EQ(out.fault.pass, "fault-miscompile");
  EXPECT_EQ(out.fault.pass_step, 1u);
  // The module rolled back to the pre-action snapshot.
  EXPECT_EQ(printModule(*m), before);
}

TEST(ContractCheckerTest, MiscompileActionFaultsInEnvironmentStep) {
  // Same attribution through a full environment step: contracts are
  // default-on, so the injected miscompile surfaces as a contained
  // ContractViolation fault with the pass name attached.
  registerFaultInjectionPasses();
  auto program = parseOrDie(R"(
module "t"
define @main : fn() -> i64 external {
block e:
  %x : i64 = add i64 20, i64 22
  ret %x
}
)");
  const std::vector<SubSequence> actions = {{1, {"dce"}},
                                            {2, {"fault-miscompile"}}};
  EnvConfig cfg;
  ASSERT_TRUE(cfg.check_contracts);
  PhaseOrderEnv env(*program, actions, cfg);
  env.reset();

  PhaseOrderEnv::StepResult sr = env.step(1);
  ASSERT_TRUE(sr.faulted);
  EXPECT_EQ(sr.fault.kind, FaultKind::ContractViolation);
  EXPECT_EQ(sr.fault.pass, "fault-miscompile");
  EXPECT_GT(env.analysisStats().contract_checks, 0u);
  EXPECT_GT(env.analysisStats().contract_violations, 0u);
}

TEST(ContractCheckerTest, ChangedFalseLieIsFlagged) {
  class SneakyPass : public Pass {
   public:
    std::string_view name() const override { return "test-sneaky"; }
    bool run(Module& module) override {
      Instruction* add =
          firstOpcode(*module.getFunction("main"), Opcode::Add);
      add->setOperand(1, module.i64Const(7));
      return false;  // The lie: the IR did change.
    }
  };
  auto m = parseOrDie(R"(
module "t"
define @main : fn() -> i64 external {
block e:
  %x : i64 = add i64 1, i64 2
  ret %x
}
)");
  SneakyPass sneaky;
  InstrumentOptions opts;
  opts.contracts = true;
  PassInstrumentation instr(opts);
  runPasses(*m, {&sneaky}, &instr);

  ASSERT_FALSE(instr.clean());
  EXPECT_EQ(instr.failures().front().stage, "contract");
  EXPECT_EQ(instr.failures().front().pass, "test-sneaky");
  EXPECT_NE(instr.failures().front().detail.find("changed=false"),
            std::string::npos);
}

TEST(ContractCheckerTest, HonestDeclarationsStayClean) {
  // A mix of preserving (dce, licm: cfg) and rewriting (simplifycfg: none)
  // passes over a real workload: nobody's declaration is a lie.
  ProgramSpec spec;
  spec.seed = 77;
  spec.kernels = 3;
  auto m = generateProgram(spec);
  InstrumentOptions opts;
  opts.contracts = true;
  PassInstrumentation instr(opts);
  runPassSequence(*m, ozPassNames(), instr);
  EXPECT_TRUE(instr.clean()) << instr.toText();
}

// --- fast verifier ----------------------------------------------------------

TEST(FastVerifierTest, SkipsCleanFunctionsAndCatchesBreakage) {
  auto m = parseOrDie(R"(
module "fv"
define @f : fn(i64) -> i64 internal {
block e:
  %x : i64 = add %arg0, i64 1
  ret %x
}
define @g : fn() -> i64 internal {
block e:
  %y : i64 = add i64 2, i64 3
  ret %y
}
)");
  AnalysisManager am;
  FastVerifier fv;
  EXPECT_TRUE(fv.verify(*m, am).ok());
  const std::size_t walked_once = fv.instructionsChecked();
  EXPECT_GT(walked_once, 0u);

  // Second run: both functions hash-match their clean verification.
  EXPECT_TRUE(fv.verify(*m, am).ok());
  EXPECT_EQ(fv.instructionsChecked(), walked_once);
  EXPECT_EQ(fv.functionsSkipped(), 2u);

  // Break @f structurally (operand type mismatch): flagged, and @g is
  // still skipped.
  Instruction* add = firstOpcode(*m->getFunction("f"), Opcode::Add);
  add->setOperand(1, m->i1Const(true));
  const VerifyResult vr = fv.verify(*m, am);
  EXPECT_FALSE(vr.ok());
  EXPECT_EQ(fv.functionsSkipped(), 3u);
}

// --- verifier use counts ----------------------------------------------------

// @f numbers arguments, branch-only and phi-operand labels, instructions and
// a value used only from an unreachable block; @gv and @callee are used only
// from @g, which the skip cache skips once it has verified clean.
constexpr const char* kUseCountModule = R"(
module "uc"
global @gv : i64 = int 5, internal
define @callee : fn(i64) -> i64 internal {
block e:
  ret %arg0
}
define @f : fn(i64, i1) -> i64 internal {
block e:
  %x : i64 = add %arg0, i64 1
  %y : i64 = add %arg0, i64 2
  condbr %arg1, label a, label b
block a:
  br label j
block b:
  br label j
block j:
  %p : i64 = phi [ %x, a ], [ i64 0, b ]
  ret %p
block dead:
  %d : i64 = add %y, %x
  ret %d
}
define @g : fn() -> i64 internal {
block e:
  %v : i64 = load @gv
  %c : i64 = call @callee(%v)
  ret %c
}
)";

/// A named argument, block or instruction of \p f.
Value* localValue(Function& f, const std::string& name) {
  for (const auto& a : f.args())
    if (a->name() == name) return a.get();
  for (const auto& b : f.blocks()) {
    if (b->name() == name) return b.get();
    for (const auto& inst : b->insts())
      if (inst->name() == name) return inst.get();
  }
  return nullptr;
}

bool hasError(const VerifyResult& vr, const std::string& msg) {
  return std::find(vr.errors.begin(), vr.errors.end(), msg) != vr.errors.end();
}

std::string joinErrors(const VerifyResult& vr) {
  std::string out;
  for (const std::string& e : vr.errors) out += e + "; ";
  return out;
}

TEST(FastVerifierTest, UseListDriftIsFlaggedForEveryCountedValue) {
  struct Row {
    const char* what;
    const char* function;  // nullptr: a module symbol
    const char* value;
  };
  const Row rows[] = {
      {"argument", "f", "arg0"},
      {"branch-only label", "f", "j"},
      {"branch and phi-operand label", "f", "a"},
      {"instruction", "f", "x"},
      {"value used only from an unreachable block", "f", "y"},
      {"global used only from a skipped function", nullptr, "gv"},
      {"function used only from a skipped function", nullptr, "callee"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    auto m = parseOrDie(kUseCountModule);
    Value* v = nullptr;
    std::string expected;
    if (row.function != nullptr) {
      v = localValue(*m->getFunction(row.function), row.value);
      expected = std::string("in @") + row.function +
                 ": use-list size mismatch for " +
                 (isa<BasicBlock>(v) ? "label " : "%") + row.value;
    } else {
      v = m->getGlobal(row.value);
      if (v == nullptr) v = m->getFunction(row.value);
      expected = std::string("use-list size mismatch for @") + row.value;
    }
    ASSERT_NE(v, nullptr);

    AnalysisManager am;
    FastVerifier fv;
    ASSERT_TRUE(fv.verify(*m, am).ok());
    const VerifyResult warm = fv.verify(*m, am);
    ASSERT_TRUE(warm.ok()) << joinErrors(warm);
    ASSERT_EQ(fv.functionsSkipped(), 3u);

    // A detached phi bound to the value: its use list gains an entry that
    // no operand slot in the module accounts for.
    auto phantom =
        Instruction::create({.opcode = Opcode::Phi, .type = v->type()}, "", 1);
    phantom->bindOperand(0, v);
    if (row.function != nullptr)
      expected += " (" + std::to_string(v->numUses()) + " recorded vs " +
                  std::to_string(v->numUses() - 1) + " actual)";

    const VerifyResult vr = fv.verify(*m, am);
    EXPECT_TRUE(hasError(vr, expected)) << expected << " not in "
                                        << joinErrors(vr);
    EXPECT_EQ(vr.errors.size(), 1u) << joinErrors(vr);
    // A symbol's drift changes no body, so every function is skipped and
    // the count comes from the cached references; a local value's drift
    // re-verifies its own function only.
    EXPECT_EQ(fv.functionsSkipped(), row.function == nullptr ? 6u : 5u);
    EXPECT_TRUE(hasError(verifyModule(*m), expected));
  }
}

TEST(FastVerifierTest, ForeignOperandIsNotALocalUse) {
  auto m = parseOrDie(kUseCountModule);
  Function& f = *m->getFunction("f");
  Function& g = *m->getFunction("g");
  // @f's entry gains an add of @g's %v. %v's id in @g's numbering (1) is
  // also an id of @f's (the label a), so a count by id alone would land
  // on the wrong value.
  Value* v = localValue(g, "v");
  auto* copy = f.entry()->insertBefore(
      f.entry()->terminator(),
      std::make_unique<BinaryInst>(Opcode::Add, v->type(), v, v,
                                   f.nextValueName()));
  AnalysisManager am;
  FastVerifier fv;
  const VerifyResult vr = fv.verify(*m, am);
  // The foreign uses count for neither function's own values: @g sees %v
  // with two more recorded users than its operands account for, and @f
  // reports the foreign operand, with no use-list error of its own.
  EXPECT_TRUE(hasError(vr, "in @g: use-list size mismatch for %v (3 recorded "
                           "vs 1 actual)"))
      << joinErrors(vr);
  EXPECT_TRUE(hasError(vr, "in @f: operand from another function"))
      << joinErrors(vr);
  for (const std::string& e : vr.errors)
    EXPECT_EQ(e.find("in @f: use-list"), std::string::npos) << e;
  copy->eraseFromParent();
  EXPECT_TRUE(fv.verify(*m, am).ok());
}

TEST(FastVerifierTest, SandboxAttributesBreakerPass) {
  class BreakerPass : public Pass {
   public:
    std::string_view name() const override { return "test-df-breaker"; }
    bool run(Module& module) override {
      Instruction* add =
          firstOpcode(*module.getFunction("main"), Opcode::Add);
      add->setOperand(1, module.i1Const(true));
      return true;
    }
  };
  registerPass("test-df-breaker",
               [] { return std::make_unique<BreakerPass>(); });
  auto m = parseOrDie(R"(
module "t"
define @main : fn() -> i64 external {
block e:
  %x : i64 = add i64 1, i64 2
  ret %x
}
)");
  const std::string before = printModule(*m);
  SandboxConfig sc;
  SandboxOutcome out = runActionSandboxed(m, {"dce", "test-df-breaker"}, sc);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.fault.kind, FaultKind::VerifyFailure);
  EXPECT_EQ(out.fault.pass, "test-df-breaker");
  EXPECT_EQ(out.fault.pass_step, 2u);
  EXPECT_EQ(printModule(*m), before);
}

// --- static features --------------------------------------------------------

TEST(StaticFeaturesTest, FixedDimensionDeterministicAndNamed) {
  ProgramSpec spec;
  spec.seed = 31;
  spec.kernels = 3;
  auto m = generateProgram(spec);
  AnalysisManager am;

  const std::vector<double> v1 = extractStaticFeatures(*m, am);
  ASSERT_EQ(v1.size(), kStaticFeatureDim);
  const std::vector<double> v2 = extractStaticFeatures(*m, am);
  EXPECT_EQ(v1, v2);
  // The second extraction ran entirely from cache.
  EXPECT_GT(am.stats().hits, 0u);

  for (std::size_t i = 0; i < kStaticFeatureDim; ++i) {
    ASSERT_NE(staticFeatureName(i), nullptr) << i;
    EXPECT_NE(std::string(staticFeatureName(i)), "") << i;
  }

  // Optimization moves the features.
  runPassSequence(*m, ozPassNames());
  const std::vector<double> v3 = extractStaticFeatures(*m, am);
  EXPECT_NE(v1, v3);
}

// The def-use components (dead defs, single-use defs, mean uses per def)
// as a per-function operand-count summary aggregated them before the
// extractor read use lists: counts keyed by operand, then weighted back.
std::array<double, 3> operandCountDefUseFeatures(const Module& m) {
  double dead = 0.0, single = 0.0, uses_weighted = 0.0, def_total = 0.0;
  for (const auto& f : m.functions()) {
    if (f->isDeclaration()) continue;
    std::unordered_map<const Value*, std::size_t> counts;
    for (const auto& b : f->blocks())
      for (const auto& inst : b->insts())
        for (const Value* op : inst->operands()) ++counts[op];
    std::size_t defs = 0, dead_defs = 0, single_use = 0, use_total = 0;
    for (const auto& b : f->blocks()) {
      for (const auto& inst : b->insts()) {
        if (inst->type()->isVoid()) continue;
        ++defs;
        const auto it = counts.find(inst.get());
        const std::size_t uses = it == counts.end() ? 0 : it->second;
        use_total += uses;
        if (uses == 0) ++dead_defs;
        if (uses == 1) ++single_use;
      }
    }
    const double avg = defs == 0 ? 0.0
                                 : static_cast<double>(use_total) /
                                       static_cast<double>(defs);
    dead += static_cast<double>(dead_defs);
    single += static_cast<double>(single_use);
    uses_weighted += avg * static_cast<double>(defs);
    def_total += static_cast<double>(defs);
  }
  const double mean = def_total == 0.0 ? 0.0 : uses_weighted / def_total;
  return {std::log1p(dead), std::log1p(single), std::log1p(mean)};
}

void expectDefUseFeaturesMatch(Module& m, const std::string& what) {
  ASSERT_TRUE(verifyModule(m).ok()) << what;
  AnalysisManager am;
  const std::vector<double> got = extractStaticFeatures(m, am);
  const std::array<double, 3> want = operandCountDefUseFeatures(m);
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(std::memcmp(&got[34 + k], &want[k], sizeof(double)), 0)
        << what << " " << staticFeatureName(34 + k) << ": " << got[34 + k]
        << " vs " << want[k];
}

TEST(StaticFeaturesTest, DefUseComponentsMatchOperandCountsByteForByte) {
  const auto names = fuzzablePassNames();
  Rng rng(0xdef05e);
  for (std::size_t j = 0; j < 28; ++j) {
    // The spec of e2ebench's compile request pool (RequestStream::poolSpec
    // in e2ebench/common.cpp), one program per size class twice over.
    ProgramSpec spec;
    spec.name = "req" + std::to_string(j);
    spec.seed = Rng::forStream(0x4e0e57, j).next();
    spec.kernels = 2 + static_cast<int>(j % 14);
    auto m = generateProgram(spec);
    expectDefUseFeaturesMatch(*m, spec.name);
    const std::vector<std::string> soup = randomSoup(names, rng, 12);
    runPassSequence(*m, soup);
    expectDefUseFeaturesMatch(*m, spec.name + " after a pass soup");
  }
}

TEST(StaticFeaturesTest, TrainsEndToEndAsObservationSpace) {
  std::vector<std::unique_ptr<Module>> storage;
  std::vector<const Module*> corpus;
  for (std::uint64_t seed = 500; seed < 502; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2;
    storage.push_back(generateProgram(spec));
    corpus.push_back(storage.back().get());
  }

  TrainConfig cfg;
  cfg.total_steps = 60;
  cfg.env.episode_length = 5;
  cfg.env.state_kind = StateKind::StaticFeatures;
  cfg.agent.state_dim = cfg.env.stateDim();
  ASSERT_EQ(cfg.agent.state_dim, kStaticFeatureDim);
  cfg.agent.num_actions = odgSubSequences().size();
  cfg.agent.epsilon_decay_steps = 50;
  cfg.agent.seed = 11;
  TrainResult result = trainAgent(corpus, cfg);
  EXPECT_EQ(result.stats.steps, 60u);
  // The default-on verifier + contract checker ran on every sandboxed step,
  // and the analysis cache absorbed the repeat queries.
  EXPECT_GT(result.stats.analysis.contract_checks, 0u);
  EXPECT_EQ(result.stats.analysis.contract_violations, 0u);
  EXPECT_GT(result.stats.analysis.hitRate(), 0.5);

  // Greedy deployment with the same observation space preserves semantics.
  ProgramSpec held;
  held.seed = 555;
  held.kernels = 2;
  auto program = generateProgram(held);
  const ExecResult before = runModule(*program);
  ASSERT_TRUE(before.ok) << before.trap;
  PolicyRollout rollout =
      applyPolicy(*result.agent, *program, odgSubSequences(), cfg.env);
  ASSERT_NE(rollout.optimized, nullptr);
  EXPECT_TRUE(verifyModule(*rollout.optimized).ok());
  const ExecResult after = runModule(*rollout.optimized);
  EXPECT_EQ(before.fingerprint(), after.fingerprint());
}

// --- fuzz: verifier + contracts as a static oracle --------------------------

TEST(DataflowFuzzTest, EveryRegisteredPassCleanOrFlagged) {
  // Every registered pass runs alone over generated workloads under the
  // fast verifier + contract checker. The interpreter is the ground truth:
  // a behaviour change must have been flagged statically, and a preserved
  // behaviour must produce no finding (no false positives). Deliberately
  // broken injection passes ("fault-*", "test-*") are exercised separately
  // below and skipped here.
  for (const std::uint64_t seed : {61ull, 62ull}) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2;
    const auto base = generateProgram(spec);
    const ExecResult before = runModule(*base);
    ASSERT_TRUE(before.ok) << before.trap;

    for (const std::string& name : allPassNames()) {
      if (name.rfind("fault-", 0) == 0 || name.rfind("test-", 0) == 0) {
        continue;
      }
      auto m = cloneModule(*base);
      InstrumentOptions opts;
      opts.verify = true;
      opts.contracts = true;
      PassInstrumentation instr(opts);
      runPassSequence(*m, {name}, instr);

      const ExecResult after = runModule(*m);
      const bool miscompiled =
          !after.ok || after.fingerprint() != before.fingerprint();
      if (miscompiled) {
        EXPECT_FALSE(instr.clean())
            << "pass " << name << " (seed " << seed
            << ") changed behaviour but no check flagged it";
      } else {
        EXPECT_TRUE(instr.clean())
            << "false positive on " << name << " (seed " << seed << "):\n"
            << instr.toText();
      }
    }
  }
}

TEST(DataflowFuzzTest, InjectedMiscompileIsFlaggedOverWorkloads) {
  // The flagging direction of the oracle property: the verifier-clean
  // injected miscompile is caught statically on real generated programs.
  registerFaultInjectionPasses();
  ProgramSpec spec;
  spec.seed = 63;
  spec.kernels = 2;
  auto m = generateProgram(spec);
  InstrumentOptions opts;
  opts.verify = true;
  opts.contracts = true;
  PassInstrumentation instr(opts);
  runPassSequence(*m, {"fault-miscompile"}, instr);
  ASSERT_FALSE(instr.clean());
  EXPECT_EQ(instr.failures().front().stage, "contract");
  EXPECT_EQ(instr.failures().front().pass, "fault-miscompile");
}

}  // namespace
}  // namespace posetrl
