// Robustness "mini-fuzz": random byte-level mutations of valid module text
// must never crash the parser — each mutant either parses (and then either
// verifies or is cleanly rejected by the verifier) or produces a parse
// error. Also fuzzes the pass pipeline with random pass orderings beyond
// the structured property tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/dominators.h"
#include "analysis/fast_verifier.h"
#include "core/oz_sequence.h"
#include "interp/interpreter.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lint/instrumentation.h"
#include "pass_soup.h"
#include "passes/pass.h"
#include "support/rng.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

/// 1-4 random byte-level edits of \p text: substitution, deletion, or
/// duplication.
std::string mutateText(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.nextBelow(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.nextBelow(text.size());
    switch (rng.nextBelow(3)) {
      case 0:
        text[pos] = static_cast<char>(' ' + rng.nextBelow(95));
        break;
      case 1:
        text.erase(pos, 1 + rng.nextBelow(5));
        break;
      default:
        text.insert(pos, text.substr(pos, 1 + rng.nextBelow(8)));
        break;
    }
  }
  return text;
}

TEST(FuzzTest, MutatedTextNeverCrashesParser) {
  ProgramSpec spec;
  spec.seed = 777;
  spec.kernels = 2;
  auto m = generateProgram(spec);
  const std::string base = printModule(*m);
  Rng rng(101);
  int parsed_ok = 0;
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = mutateText(base, rng);
    std::string err;
    auto mutant = parseModule(text, &err);
    if (mutant == nullptr) {
      ++rejected;
      EXPECT_FALSE(err.empty());
      continue;
    }
    ++parsed_ok;
    // Whatever parsed must be verifiable without crashing (failures fine).
    (void)verifyModule(*mutant);
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(rejected, 10);
  EXPECT_GT(parsed_ok + rejected, 299);
}

TEST(FuzzTest, RandomPassSoupPreservesSemantics) {
  // 8 trials of 20 uniformly random passes each (not just the curated
  // sub-sequences): semantics and verifier must hold, and after every pass
  // each still-current fingerprint memo must match a fresh walk.
  const auto names = fuzzablePassNames();
  ProgramSpec spec;
  spec.seed = 888;
  spec.kernels = 3;
  Rng rng(202);
  std::size_t memos_compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto m = generateProgram(spec);
    const ExecResult before = runModule(*m);
    ASSERT_TRUE(before.ok);
    for (const std::string& pass : randomSoup(names, rng, 20)) {
      warmFingerprintMemos(*m);
      PassInstrumentation instr;  // Default options: verify only.
      runPassSequence(*m, {pass}, instr);
      ASSERT_TRUE(instr.clean())
          << "trial " << trial << ":\n" << instr.toText();
      memos_compared += expectFingerprintMemosFresh(
          *m, "trial " + std::to_string(trial) + " after -" + pass);
    }
    const ExecResult after = runModule(*m);
    EXPECT_EQ(before.fingerprint(), after.fingerprint()) << "trial " << trial;
  }
  EXPECT_GT(memos_compared, 0u);
}

TEST(FuzzTest, ManySeedsSurviveOz) {
  // Broad sweep: many generator seeds through the full Oz pipeline.
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2 + static_cast<int>(seed % 5);
    auto m = generateProgram(spec);
    const ExecResult before = runModule(*m);
    ASSERT_TRUE(before.ok) << "seed " << seed << ": " << before.trap;
    runPassSequence(*m, ozPassNames());
    const auto vr = verifyModule(*m);
    ASSERT_TRUE(vr.ok()) << "seed " << seed << ":\n" << vr.message();
    const ExecResult after = runModule(*m);
    EXPECT_EQ(before.fingerprint(), after.fingerprint()) << "seed " << seed;
  }
}

TEST(FuzzTest, DifferentialOracleOverRandomSequences) {
  // The miscompile oracle as a fuzz harness: random pass sequences over
  // generated workloads run under full instrumentation (verify + oracle);
  // any divergence is attributed to a single pass, which makes failures
  // here directly actionable. Bounded small: 4 trials x 12 passes.
  const auto names = fuzzablePassNames();
  Rng rng(303);
  for (int trial = 0; trial < 4; ++trial) {
    ProgramSpec spec;
    spec.seed = 900 + static_cast<std::uint64_t>(trial);
    spec.kernels = 2;
    auto m = generateProgram(spec);
    const std::vector<std::string> soup = randomSoup(names, rng, 12);
    InstrumentOptions opts;
    opts.verify = true;
    opts.oracle = true;
    PassInstrumentation instr(opts);
    runPassSequence(*m, soup, instr);
    EXPECT_TRUE(instr.clean())
        << "trial " << trial << ":\n" << instr.toText();
  }
}

// --- cold verifier == warm verifier ----------------------------------------

/// A cold verifyModule (fresh verifier and analysis manager) and \p warm
/// (whose skip cache and analysis manager \p warm_am may hold entries for
/// \p m's functions from earlier calls) must report the same errors; so must
/// \p warm again, now skipping every function it just found clean. Returns
/// the cold result.
VerifyResult expectVerifiersAgree(Module& m, FastVerifier& warm,
                                  AnalysisManager& warm_am,
                                  const std::string& what) {
  const VerifyResult cold = verifyModule(m);
  EXPECT_EQ(warm.verify(m, warm_am).message(), cold.message())
      << what << " (warm)";
  EXPECT_EQ(warm.verify(m, warm_am).message(), cold.message())
      << what << " (rerun)";
  return cold;
}

/// Replaces one %name reference in \p text with another name that occurs
/// in it: mostly parses, and mostly breaks dominance, types or use order.
std::string swapValueName(const std::string& text, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> refs;  // (pos, length)
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') continue;
    std::size_t j = i + 1;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) ||
            text[j] == '_' || text[j] == '.'))
      ++j;
    if (j > i + 1) refs.emplace_back(i, j - i);
  }
  if (refs.size() < 2) return text;
  const auto [pos, len] = refs[rng.nextBelow(refs.size())];
  const auto [from, from_len] = refs[rng.nextBelow(refs.size())];
  std::string out = text;
  out.replace(pos, len, text.substr(from, from_len));
  return out;
}

TEST(VerifierEquivalenceTest, AgreeOnMutatedText) {
  ProgramSpec spec;
  spec.seed = 778;
  spec.kernels = 2;
  const std::string base = printModule(*generateProgram(spec));
  Rng rng(404);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string err;
    auto mutant = parseModule(trial % 2 == 0 ? mutateText(base, rng)
                                             : swapValueName(base, rng),
                              &err);
    if (mutant == nullptr) continue;
    ++parsed;
    AnalysisManager am;
    FastVerifier warm;
    if (!expectVerifiersAgree(*mutant, warm, am,
                              "trial " + std::to_string(trial))
             .ok())
      ++rejected;
  }
  EXPECT_GT(parsed, 20);
  EXPECT_GT(rejected, 0);
}

/// In-place corruptions, one per check the verifier implements with its
/// dense local numbering or its dominator tree.
enum class Corruption {
  None,
  ForeignSuccessor,   // "branch to block of another function"
  ArgUseDrift,        // use-list size mismatch on an argument
  BlockUseDrift,      // ... on a block label
  InstUseDrift,       // ... on an instruction result
  UseBeforeDef,       // "use before def in block"
  PhiMissingEdge,     // "phi missing incoming edge from"
  DuplicatePredecessor,
  ForeignOperandInDeadBlock,  // "operand from another function", unreachable
  CrossBlockDominance,        // "operand does not dominate use"
  PhiEdgeDominance,   // "phi incoming value does not dominate its edge"
  EntryPredecessor,   // "entry block has predecessors"
  EmptyBlock,         // "empty basic block"
};
constexpr Corruption kCorruptions[] = {
    Corruption::None,
    Corruption::ForeignSuccessor,
    Corruption::ArgUseDrift,
    Corruption::BlockUseDrift,
    Corruption::InstUseDrift,
    Corruption::UseBeforeDef,
    Corruption::PhiMissingEdge,
    Corruption::DuplicatePredecessor,
    Corruption::ForeignOperandInDeadBlock,
    Corruption::CrossBlockDominance,
    Corruption::PhiEdgeDominance,
    Corruption::EntryPredecessor,
    Corruption::EmptyBlock};

/// The message every application of \p c must produce; nullptr for the
/// kinds that are not always an error.
const char* expectedMessage(Corruption c) {
  switch (c) {
    case Corruption::None:
    case Corruption::DuplicatePredecessor:
      return nullptr;
    case Corruption::ForeignSuccessor:
      return "branch to block of another function";
    case Corruption::ArgUseDrift:
    case Corruption::InstUseDrift:
      return "use-list size mismatch for %";
    case Corruption::BlockUseDrift:
      return "use-list size mismatch for label ";
    case Corruption::UseBeforeDef:
      return "use before def in block";
    case Corruption::PhiMissingEdge:
      return "phi missing incoming edge from";
    case Corruption::ForeignOperandInDeadBlock:
      return "operand from another function";
    case Corruption::CrossBlockDominance:
      return "operand does not dominate use";
    case Corruption::PhiEdgeDominance:
      return "phi incoming value does not dominate its edge";
    case Corruption::EntryPredecessor:
      return "entry block has predecessors";
    case Corruption::EmptyBlock:
      return "empty basic block";
  }
  return nullptr;
}

/// A result of \p f whose type is \p type and whose reachable block does
/// not dominate the reachable block \p at; nullptr when none exists.
Instruction* nonDominatingDef(Function& f, const DominatorTree& dt,
                              Type* type, BasicBlock* at) {
  if (!dt.isReachable(at)) return nullptr;
  for (const auto& b : f.blocks()) {
    if (!dt.isReachable(b.get()) || dt.dominates(b.get(), at)) continue;
    for (const auto& inst : b->insts())
      if (inst->type() == type) return inst.get();
  }
  return nullptr;
}

/// An instruction of \p f whose copy outside \p f references \p f's own
/// instructions and nothing function-local besides: no argument, no block.
Instruction* foreignCopySource(Function& f) {
  for (const auto& b : f.blocks()) {
    for (const auto& inst : b->insts()) {
      if (inst->isTerminator() || inst->opcode() == Opcode::Phi) continue;
      bool uses_inst = false;
      bool uses_other_local = false;
      for (const Value* op : inst->operands()) {
        uses_inst |= isa<Instruction>(op);
        uses_other_local |= isa<Argument>(op) || isa<BasicBlock>(op);
      }
      if (uses_inst && !uses_other_local) return inst.get();
    }
  }
  return nullptr;
}

/// Applies \p c to the first site in \p m that admits it (scanning from a
/// random function); false when no site exists. The use-drift kinds hand
/// the detached instruction that holds the phantom use to \p phantom.
bool corrupt(Module& m, Corruption c, Rng& rng,
             std::unique_ptr<Instruction>& phantom) {
  std::vector<Function*> defined;
  for (const auto& f : m.functions())
    if (!f->isDeclaration()) defined.push_back(f.get());
  const std::size_t start = rng.nextBelow(defined.size());
  for (std::size_t k = 0; k < defined.size(); ++k) {
    Function& f = *defined[(start + k) % defined.size()];
    Function& other = *defined[(start + k + 1) % defined.size()];
    if (c == Corruption::EmptyBlock) {
      f.addBlock("empty");
      return true;
    }
    const DominatorTree dt(f);
    if (c == Corruption::ForeignOperandInDeadBlock) {
      // A copy of one of other's instructions, alone in a new block of f
      // that no branch reaches.
      Instruction* source = &other == &f ? nullptr : foreignCopySource(other);
      if (source == nullptr) continue;
      BasicBlock* dead = f.addBlock("dead");
      Instruction* copy =
          dead->pushBack(std::unique_ptr<Instruction>(source->clone()));
      if (!copy->type()->isVoid()) copy->setName(f.nextValueName());
      dead->pushBack(std::make_unique<UnreachableInst>(m.types().voidTy()));
      return true;
    }
    for (const auto& b : f.blocks()) {
      for (const auto& inst : b->insts()) {
        Instruction* in = inst.get();
        switch (c) {
          case Corruption::None:
            return true;
          case Corruption::ForeignSuccessor:
            if (&other == &f || in->numSuccessors() == 0) break;
            in->setSuccessor(0, other.blocks().back().get());
            return true;
          case Corruption::ArgUseDrift:
          case Corruption::BlockUseDrift:
          case Corruption::InstUseDrift: {
            const Value::Kind want =
                c == Corruption::ArgUseDrift     ? Value::Kind::Argument
                : c == Corruption::BlockUseDrift ? Value::Kind::BasicBlock
                                                 : Value::Kind::Instruction;
            for (std::size_t i = 0; i < in->numOperands(); ++i) {
              if (in->operand(i)->kind() != want) continue;
              // A detached phi bound to the operand: the use list gains an
              // entry no operand slot in the module accounts for.
              Value* used = in->operand(i);
              phantom = Instruction::create(
                  {.opcode = Opcode::Phi, .type = used->type()}, "", 1);
              phantom->bindOperand(0, used);
              return true;
            }
            break;
          }
          case Corruption::UseBeforeDef: {
            if (in->opcode() == Opcode::Phi || in->isTerminator()) break;
            for (Value* op : in->operands()) {
              auto* def = dynCast<Instruction>(op);
              if (def == nullptr || def->parent() != b.get() ||
                  def->opcode() == Opcode::Phi)
                continue;
              in->moveBefore(def);
              return true;
            }
            break;
          }
          case Corruption::PhiMissingEdge: {
            if (in->opcode() != Opcode::Phi) break;
            auto* phi = static_cast<PhiInst*>(in);
            // Point one incoming entry at a block that is not a predecessor
            // (the entry never is), keeping the entry count.
            BasicBlock* stranger = f.entry();
            if (b->hasPredecessor(stranger) || phi->numIncoming() == 0) break;
            in->setOperand(1, stranger);
            return true;
          }
          case Corruption::CrossBlockDominance:
            if (in->opcode() == Opcode::Phi) break;
            // Only operands that already name a result: some slots (switch
            // case values) must hold constants.
            for (std::size_t i = 0; i < in->numOperands(); ++i) {
              if (!isa<Instruction>(in->operand(i))) continue;
              Instruction* def =
                  nonDominatingDef(f, dt, in->operand(i)->type(), b.get());
              if (def == nullptr) continue;
              in->setOperand(i, def);
              return true;
            }
            break;
          case Corruption::PhiEdgeDominance: {
            if (in->opcode() != Opcode::Phi || !dt.isReachable(b.get())) break;
            auto* phi = static_cast<PhiInst*>(in);
            for (std::size_t i = 0; i < phi->numIncoming(); ++i) {
              Instruction* def = nonDominatingDef(f, dt, phi->type(),
                                                  phi->incomingBlock(i));
              if (def == nullptr) continue;
              in->setOperand(2 * i, def);
              return true;
            }
            break;
          }
          case Corruption::EntryPredecessor:
            if (in->numSuccessors() == 0) break;
            in->setSuccessor(0, f.entry());
            return true;
          case Corruption::ForeignOperandInDeadBlock:  // Applied above.
          case Corruption::EmptyBlock:
            break;
          case Corruption::DuplicatePredecessor:
            if (in->opcode() != Opcode::CondBr ||
                in->successor(0) == in->successor(1))
              break;
            in->setSuccessor(1, in->successor(0));
            return true;
        }
      }
    }
  }
  return false;
}

TEST(VerifierEquivalenceTest, AgreeOnCorruptedPassSoupOutputs) {
  // Pass-soup outputs (phis, loops, calls, dead blocks) corrupted in place
  // after a warm verifier has cached every function as clean.
  const auto names = fuzzablePassNames();
  Rng rng(505);
  std::map<Corruption, int> applied;
  std::map<Corruption, int> flagged;
  for (int trial = 0; trial < 12; ++trial) {
    ProgramSpec spec;
    spec.seed = 1000 + static_cast<std::uint64_t>(trial);
    spec.kernels = 2 + trial % 3;
    const std::vector<std::string> soup = randomSoup(names, rng, 10);
    for (const Corruption c : kCorruptions) {
      auto m = generateProgram(spec);
      runPassSequence(*m, soup);
      AnalysisManager am;
      FastVerifier warm;
      const std::string what = "trial " + std::to_string(trial) +
                               " corruption " +
                               std::to_string(static_cast<int>(c));
      ASSERT_TRUE(warm.verify(*m, am).ok()) << what;
      // Destroyed before the module; a teardown never reads user lists.
      std::unique_ptr<Instruction> phantom;
      if (!corrupt(*m, c, rng, phantom)) continue;
      ++applied[c];
      const VerifyResult cold = expectVerifiersAgree(*m, warm, am, what);
      const char* expected = expectedMessage(c);
      if (expected == nullptr ? !cold.ok()
                              : cold.message().find(expected) !=
                                    std::string::npos)
        ++flagged[c];
    }
  }
  for (const Corruption c : kCorruptions) {
    EXPECT_GT(applied[c], 0) << static_cast<int>(c);
    if (c == Corruption::None) {
      EXPECT_EQ(flagged[c], 0);
    } else if (c == Corruption::PhiMissingEdge) {
      // Where a condbr sends both edges to the phi's block, the replaced
      // entry's twin still covers the predecessor.
      EXPECT_GT(flagged[c], 0);
    } else if (c != Corruption::DuplicatePredecessor) {
      // Duplicate edges are legal where the target has no phis.
      EXPECT_EQ(flagged[c], applied[c]) << static_cast<int>(c);
    }
  }
}

}  // namespace
}  // namespace posetrl
