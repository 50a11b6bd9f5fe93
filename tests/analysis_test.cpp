// Unit tests for the analysis library: CFG orders, dominator tree, loop
// detection, call graph, and block frequency.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/block_frequency.h"
#include "analysis/call_graph.h"
#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "analysis/fast_verifier.h"
#include "analysis/liveness.h"
#include "analysis/loop_info.h"
#include "core/environment.h"
#include "core/oz_sequence.h"
#include "faults/sandbox.h"
#include "ir/basic_block.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/ir_builder.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/snapshot.h"
#include "ir/structural_hash.h"
#include "ir/verifier.h"
#include "pass_soup.h"
#include "support/rng.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

/// Diamond CFG: entry -> {a, b} -> join -> exit(ret).
struct Diamond {
  std::unique_ptr<Module> m;
  Function* f;
  BasicBlock* entry;
  BasicBlock* a;
  BasicBlock* b;
  BasicBlock* join;
};

Diamond makeDiamond() {
  Diamond d;
  d.m = std::make_unique<Module>("diamond");
  TypeContext& tc = d.m->types();
  d.f = d.m->createFunction("f", tc.funcType(tc.i64(), {tc.i1()}),
                            Function::Linkage::Internal);
  d.entry = d.f->addBlock("entry");
  d.a = d.f->addBlock("a");
  d.b = d.f->addBlock("b");
  d.join = d.f->addBlock("join");
  IRBuilder ib(d.m.get());
  ib.setInsertPoint(d.entry);
  ib.condBr(d.f->arg(0), d.a, d.b);
  ib.setInsertPoint(d.a);
  ib.br(d.join);
  ib.setInsertPoint(d.b);
  ib.br(d.join);
  ib.setInsertPoint(d.join);
  PhiInst* phi = ib.phi(tc.i64());
  phi->addIncoming(d.m->i64Const(1), d.a);
  phi->addIncoming(d.m->i64Const(2), d.b);
  ib.ret(phi);
  return d;
}

/// Two-level loop nest built from text.
const char* kLoopNest = R"(
module "loops"
define @f : fn(i64) -> i64 internal {
block entry:
  br label outer_header
block outer_header:
  %i : i64 = phi [ i64 0, entry ], [ %inext, outer_latch ]
  br label inner_header
block inner_header:
  %j : i64 = phi [ i64 0, outer_header ], [ %jnext, inner_header ]
  %jnext : i64 = add %j, i64 1
  %jdone : i1 = icmp sge %jnext, i64 4
  condbr %jdone, label outer_latch, label inner_header
block outer_latch:
  %inext : i64 = add %i, i64 1
  %idone : i1 = icmp sge %inext, %arg0
  condbr %idone, label exit, label outer_header
block exit:
  ret %inext
}
)";

TEST(CfgTest, ReversePostOrderStartsAtEntry) {
  Diamond d = makeDiamond();
  const auto rpo = reversePostOrder(*d.f);
  ASSERT_EQ(rpo.size(), 4u);
  EXPECT_EQ(rpo.front(), d.entry);
  EXPECT_EQ(rpo.back(), d.join);
}

TEST(CfgTest, PostOrderEndsAtEntry) {
  Diamond d = makeDiamond();
  const auto po = postOrder(*d.f);
  ASSERT_EQ(po.size(), 4u);
  EXPECT_EQ(po.back(), d.entry);
  EXPECT_EQ(po.front(), d.join);
}

TEST(CfgTest, UnreachableBlocksExcluded) {
  Diamond d = makeDiamond();
  BasicBlock* dead = d.f->addBlock("dead");
  IRBuilder ib(d.m.get());
  ib.setInsertPoint(dead);
  ib.br(d.join);
  EXPECT_EQ(reachableBlocks(*d.f).size(), 4u);
}

TEST(DomTest, DiamondDominators) {
  Diamond d = makeDiamond();
  DominatorTree dt(*d.f);
  EXPECT_EQ(dt.idom(d.entry), nullptr);
  EXPECT_EQ(dt.idom(d.a), d.entry);
  EXPECT_EQ(dt.idom(d.b), d.entry);
  EXPECT_EQ(dt.idom(d.join), d.entry);
  EXPECT_TRUE(dt.dominates(d.entry, d.join));
  EXPECT_FALSE(dt.dominates(d.a, d.join));
  EXPECT_TRUE(dt.dominates(d.a, d.a));
}

TEST(DomTest, DiamondFrontiers) {
  Diamond d = makeDiamond();
  DominatorTree dt(*d.f);
  EXPECT_TRUE(dt.frontier(d.a).count(d.join));
  EXPECT_TRUE(dt.frontier(d.b).count(d.join));
  EXPECT_TRUE(dt.frontier(d.entry).empty());
}

TEST(DomTest, DominatesUseThroughPhi) {
  Diamond d = makeDiamond();
  // Define a value in block `a` and feed it into the phi via both edges:
  // the edge from `a` is dominated, the edge from `b` is not.
  Instruction* br_a = d.a->terminator();
  IRBuilder ib(d.m.get());
  ib.setInsertPoint(d.a);
  Value* va = ib.add(d.m->i64Const(3), d.m->i64Const(4));
  cast<Instruction>(va)->moveBefore(br_a);
  PhiInst* phi = d.join->phis()[0];
  DominatorTree dt(*d.f);
  Instruction* ret = d.join->terminator();
  EXPECT_TRUE(dt.dominatesUse(phi, ret));

  phi->setIncomingValue(phi->indexOfBlock(d.a), va);
  EXPECT_TRUE(dt.dominatesUse(cast<Instruction>(va), phi));
  phi->setIncomingValue(phi->indexOfBlock(d.b), va);
  EXPECT_FALSE(dt.dominatesUse(cast<Instruction>(va), phi));
}

// --- dominator tree vs a naive set-based reference ---------------------------

/// Straight from the definitions: reachability by DFS, dominator sets by
/// iterating dom(b) = {b} + intersection of dom(p) over reachable preds to
/// a fixpoint, idom as the strict dominator with the largest dominator set,
/// and DF(x) = {y : x dominates a reachable pred of y, x does not strictly
/// dominate y}. Valid for CFGs whose entry has no predecessors.
void expectMatchesNaiveDominators(Function& f, const std::string& what) {
  const DominatorTree dt(f);
  std::vector<BasicBlock*> blocks;
  for (const auto& b : f.blocks()) blocks.push_back(b.get());
  BasicBlock* entry = f.entry();

  std::set<BasicBlock*> reach{entry};
  std::vector<BasicBlock*> stack{entry};
  while (!stack.empty()) {
    BasicBlock* b = stack.back();
    stack.pop_back();
    for (BasicBlock* s : b->successors())
      if (reach.insert(s).second) stack.push_back(s);
  }

  std::map<BasicBlock*, std::set<BasicBlock*>> dom;
  for (BasicBlock* b : blocks)
    if (reach.count(b)) dom[b] = b == entry ? std::set<BasicBlock*>{b} : reach;
  for (bool changed = true; changed;) {
    changed = false;
    for (BasicBlock* b : blocks) {
      if (!reach.count(b) || b == entry) continue;
      std::set<BasicBlock*> meet = reach;
      for (BasicBlock* p : b->predecessors()) {
        if (!reach.count(p)) continue;
        std::set<BasicBlock*> kept;
        for (BasicBlock* d : meet)
          if (dom[p].count(d)) kept.insert(d);
        meet = std::move(kept);
      }
      meet.insert(b);
      if (meet != dom[b]) {
        dom[b] = std::move(meet);
        changed = true;
      }
    }
  }
  const auto refDominates = [&](BasicBlock* a, BasicBlock* b) {
    return a == b || (reach.count(a) && reach.count(b) && dom[b].count(a));
  };
  const auto refIdom = [&](BasicBlock* b) -> BasicBlock* {
    if (!reach.count(b) || b == entry) return nullptr;
    BasicBlock* best = nullptr;
    for (BasicBlock* d : dom[b])
      if (d != b && (best == nullptr || dom[d].size() > dom[best].size()))
        best = d;
    return best;
  };

  // Recursive DFS, successors in terminator order, marked on entry.
  std::vector<BasicBlock*> rpo;
  std::set<BasicBlock*> seen;
  const std::function<void(BasicBlock*)> dfs = [&](BasicBlock* b) {
    seen.insert(b);
    for (BasicBlock* s : b->successors())
      if (!seen.count(s)) dfs(s);
    rpo.insert(rpo.begin(), b);
  };
  dfs(entry);
  EXPECT_EQ(dt.rpo(), rpo) << what;
  EXPECT_EQ(reversePostOrder(f), rpo) << what;
  EXPECT_EQ(rpo.size(), reach.size()) << what;
  for (BasicBlock* b : blocks) {
    const std::string at = what + " block " + b->name();
    EXPECT_EQ(dt.isReachable(b), reach.count(b) > 0) << at;
    EXPECT_EQ(dt.idom(b), refIdom(b)) << at;
    for (BasicBlock* a : blocks)
      EXPECT_EQ(dt.dominates(a, b), refDominates(a, b))
          << at << " dominated by " << a->name();

    std::vector<BasicBlock*> kids;
    for (BasicBlock* c : rpo)
      if (refIdom(c) == b) kids.push_back(c);
    EXPECT_EQ(dt.children(b), kids) << at;

    std::set<BasicBlock*> frontier;
    if (reach.count(b)) {
      for (BasicBlock* y : blocks) {
        if (!reach.count(y)) continue;
        if (b != y && refDominates(b, y)) continue;
        for (BasicBlock* p : y->predecessors())
          if (reach.count(p) && refDominates(b, p)) frontier.insert(y);
      }
    }
    EXPECT_EQ(dt.frontier(b), frontier) << at;
  }
}

/// Random CFG over \p n blocks of fn(i1) -> i64: returns, branches,
/// conditional branches (some with both targets equal), self-loops, and a
/// hub block that many blocks branch to. The entry is never a target;
/// blocks nothing reaches stay unreachable.
struct RandomCfg {
  std::unique_ptr<Module> m;
  Function* f = nullptr;
  std::vector<BasicBlock*> blocks;
};

RandomCfg makeRandomCfg(Rng& rng, std::size_t n) {
  RandomCfg g;
  g.m = std::make_unique<Module>("cfg");
  TypeContext& tc = g.m->types();
  g.f = g.m->createFunction("f", tc.funcType(tc.i64(), {tc.i1()}),
                            Function::Linkage::Internal);
  for (std::size_t i = 0; i < n; ++i)
    g.blocks.push_back(g.f->addBlock("b" + std::to_string(i)));
  BasicBlock* hub = g.blocks[1 + rng.nextBelow(n - 1)];
  const auto target = [&]() {
    return rng.nextBelow(4) == 0 ? hub : g.blocks[1 + rng.nextBelow(n - 1)];
  };
  IRBuilder ib(g.m.get());
  for (std::size_t i = 0; i < n; ++i) {
    ib.setInsertPoint(g.blocks[i]);
    const std::uint64_t pick = rng.nextBelow(20);
    if (pick < 3) {
      ib.ret(g.m->i64Const(static_cast<std::int64_t>(i)));
    } else if (pick == 3 && i != 0) {
      ib.br(g.blocks[i]);  // self-loop
    } else if (pick == 4) {
      BasicBlock* t = target();
      ib.condBr(g.f->arg(0), t, t);  // both targets equal
    } else if (pick < 11) {
      ib.br(target());
    } else {
      ib.condBr(g.f->arg(0), target(), target());
    }
  }
  return g;
}

TEST(DomTest, MatchesNaiveReferenceOnRandomCfgs) {
  Rng rng(4242);
  for (int trial = 0; trial < 150; ++trial) {
    RandomCfg g = makeRandomCfg(rng, 2 + rng.nextBelow(23));
    expectMatchesNaiveDominators(*g.f, "trial " + std::to_string(trial));
  }
}

TEST(DomTest, MatchesNaiveReferenceUnderCfgMutations) {
  // Each mutation is applied on top of the previous ones and the tree is
  // rebuilt and compared after every step.
  Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    RandomCfg g = makeRandomCfg(rng, 4 + rng.nextBelow(12));
    IRBuilder ib(g.m.get());
    for (int step = 0; step < 8; ++step) {
      const std::size_t n = g.blocks.size();
      BasicBlock* victim = g.blocks[1 + rng.nextBelow(n - 1)];
      BasicBlock* other = g.blocks[1 + rng.nextBelow(n - 1)];
      Instruction* term = victim->terminator();
      switch (rng.nextBelow(4)) {
        case 0: {  // An unreachable block branching into the graph.
          BasicBlock* dead = g.f->addBlock("dead" + std::to_string(step));
          ib.setInsertPoint(dead);
          ib.condBr(g.f->arg(0), victim, other);
          g.blocks.push_back(dead);
          break;
        }
        case 1:  // Self-loop.
          if (term->numSuccessors() > 0) term->setSuccessor(0, victim);
          break;
        case 2:  // Conditional branch with both targets equal.
          if (term->numSuccessors() == 2)
            term->setSuccessor(1, term->successor(0));
          break;
        default:  // Many predecessors: retarget a third of all edges.
          for (BasicBlock* b : g.blocks) {
            Instruction* t = b->terminator();
            for (std::size_t s = 0; s < t->numSuccessors(); ++s)
              if (rng.nextBelow(3) == 0) t->setSuccessor(s, other);
          }
          break;
      }
      expectMatchesNaiveDominators(
          *g.f, "trial " + std::to_string(trial) + " step " +
                    std::to_string(step));
    }
  }
}

TEST(DomTest, MatchesNaiveReferenceOnGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2 + static_cast<int>(seed % 4);
    auto m = generateProgram(spec);
    for (const auto& f : m->functions())
      if (!f->isDeclaration())
        expectMatchesNaiveDominators(*f, "seed " + std::to_string(seed) +
                                             " @" + f->name());
  }
}

TEST(LoopTest, DetectsNest) {
  std::string err;
  auto m = parseModule(kLoopNest, &err);
  ASSERT_NE(m, nullptr) << err;
  ASSERT_TRUE(verifyModule(*m).ok()) << verifyModule(*m).message();
  Function* f = m->getFunction("f");
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  ASSERT_EQ(li.loopCount(), 2u);
  const auto inner_first = li.loopsInnermostFirst();
  Loop* inner = inner_first[0];
  Loop* outer = inner_first[1];
  EXPECT_EQ(inner->depth(), 2u);
  EXPECT_EQ(outer->depth(), 1u);
  EXPECT_EQ(inner->parent(), outer);
  EXPECT_EQ(inner->header()->name(), "inner_header");
  EXPECT_EQ(outer->header()->name(), "outer_header");
  EXPECT_EQ(inner->blocks().size(), 1u);
  EXPECT_EQ(outer->blocks().size(), 3u);
  // Preheaders: inner loop's unique outside pred is outer_header and it
  // branches only to inner_header.
  ASSERT_NE(inner->preheader(), nullptr);
  EXPECT_EQ(inner->preheader()->name(), "outer_header");
  ASSERT_NE(outer->preheader(), nullptr);
  EXPECT_EQ(outer->preheader()->name(), "entry");
  EXPECT_EQ(inner->singleLatch(), inner->header());
  EXPECT_TRUE(outer->hasDedicatedExits());
}

TEST(LoopTest, ExitBlocks) {
  std::string err;
  auto m = parseModule(kLoopNest, &err);
  ASSERT_NE(m, nullptr) << err;
  Function* f = m->getFunction("f");
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  Loop* outer = li.loopsInnermostFirst()[1];
  const auto exits = outer->exitBlocks();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0]->name(), "exit");
}

TEST(LoopTest, NoLoopsInDiamond) {
  Diamond d = makeDiamond();
  DominatorTree dt(*d.f);
  LoopInfo li(*d.f, dt);
  EXPECT_EQ(li.loopCount(), 0u);
  EXPECT_EQ(li.loopFor(d.join), nullptr);
  EXPECT_EQ(li.loopDepth(d.a), 0u);
}

TEST(FreqTest, LoopDepthScalesFrequency) {
  std::string err;
  auto m = parseModule(kLoopNest, &err);
  ASSERT_NE(m, nullptr) << err;
  Function* f = m->getFunction("f");
  BlockFrequency bf(*f, 8.0);
  BasicBlock* entry = nullptr;
  BasicBlock* outer = nullptr;
  BasicBlock* inner = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->name() == "entry") entry = bb.get();
    if (bb->name() == "outer_header") outer = bb.get();
    if (bb->name() == "inner_header") inner = bb.get();
  }
  EXPECT_DOUBLE_EQ(bf.frequency(entry), 1.0);
  // The outer loop's bound is runtime-dependent -> static default (8);
  // the inner loop is a constant-bound counted loop -> exact trips (4).
  EXPECT_DOUBLE_EQ(bf.frequency(outer), 8.0);
  EXPECT_DOUBLE_EQ(bf.frequency(inner), 32.0);
}

const char* kCallGraphModule = R"(
module "cg"
declare @pr.sink : fn(i64) -> void intrinsic sink
define @leaf : fn(i64) -> i64 internal {
block e:
  %r : i64 = add %arg0, i64 1
  ret %r
}
define @mid : fn(i64) -> i64 internal {
block e:
  %a : i64 = call @leaf(%arg0)
  %b : i64 = call @leaf(%a)
  ret %b
}
define @main : fn() -> i64 external {
block e:
  %v : i64 = call @mid(i64 3)
  call @pr.sink(%v)
  ret %v
}
)";

TEST(CallGraphTest, EdgesAndOrder) {
  std::string err;
  auto m = parseModule(kCallGraphModule, &err);
  ASSERT_NE(m, nullptr) << err;
  CallGraph cg(*m);
  Function* leaf = m->getFunction("leaf");
  Function* mid = m->getFunction("mid");
  Function* main_fn = m->getFunction("main");
  EXPECT_TRUE(cg.callees(mid).count(leaf));
  EXPECT_TRUE(cg.callers(leaf).count(mid));
  EXPECT_FALSE(cg.addressTaken(leaf));
  EXPECT_FALSE(cg.hasIndirectCalls(main_fn));
  const auto order = cg.bottomUpOrder();
  // leaf must come before mid, and mid before main.
  const auto pos = [&](Function* f) {
    return std::find(order.begin(), order.end(), f) - order.begin();
  };
  EXPECT_LT(pos(leaf), pos(mid));
  EXPECT_LT(pos(mid), pos(main_fn));
}

TEST(CallGraphTest, AddressTakenViaGlobal) {
  std::string err;
  auto m = parseModule(R"(
module "at"
define @target : fn() -> i64 internal {
block e:
  ret i64 7
}
global @fp : ptr<fn() -> i64> = funcptr @target, internal
)",
                       &err);
  ASSERT_NE(m, nullptr) << err;
  CallGraph cg(*m);
  EXPECT_TRUE(cg.addressTaken(m->getFunction("target")));
}

// --- Body generations and the fingerprint memo ---

/// One function of each shape the entry points below edit: memory ops, a
/// compare, a direct call, a switch, a phi, a global use and an unused
/// argument. @h references nothing @f does.
const char* kGenerationModule = R"(
module "gen"
global @g : i64 = int 5, internal
define @callee : fn(i64) -> i64 internal {
block e:
  ret %arg0
}
define @f : fn(i64, i64, i64) -> i64 internal {
block entry:
  %p : ptr<i64> = alloca i64
  store %arg0, %p
  %v : i64 = load %p
  %c : i1 = icmp slt %v, %arg1
  %w : i64 = call @callee(%v)
  %gv : i64 = load @g
  condbr %c, label a, label b
block a:
  switch %v, default label join, [1 -> label b]
block b:
  br label join
block join:
  %phi : i64 = phi [ %v, a ], [ %w, b ]
  %s : i64 = add %phi, %gv
  ret %s
}
define @h : fn() -> i64 internal {
block e:
  ret i64 0
}
)";

/// A freshly parsed kGenerationModule plus handles on @f's pieces. Members
/// an entry point detaches live after the module, so they die first.
struct GenCtx {
  std::unique_ptr<Module> m;
  Function* f = nullptr;
  std::map<std::string, BasicBlock*> block;
  std::map<std::string, Instruction*> inst;
  Instruction* store = nullptr;
  Instruction* ret = nullptr;
  Instruction* pending = nullptr;  // placed with unbound slots (setup)
  std::unique_ptr<Instruction> loose;
  BasicBlock* spare = nullptr;
  ModuleSnapshot snapshot;

  Type* voidTy() { return m->types().voidTy(); }
  std::unique_ptr<Instruction> unreachable() {
    return Instruction::create(
        {.opcode = Opcode::Unreachable, .type = voidTy()}, "", 0);
  }
};

GenCtx makeGenCtx() {
  GenCtx c;
  std::string err;
  c.m = parseModule(kGenerationModule, &err);
  EXPECT_NE(c.m, nullptr) << err;
  c.f = c.m->getFunction("f");
  for (const auto& b : c.f->blocks()) {
    c.block[b->name()] = b.get();
    for (const auto& i : b->insts()) {
      if (!i->name().empty()) c.inst[i->name()] = i.get();
      if (i->opcode() == Opcode::Store) c.store = i.get();
      if (i->opcode() == Opcode::Ret) c.ret = i.get();
    }
  }
  return c;
}

struct GenerationCase {
  const char* entry_point;
  std::function<void(GenCtx&)> setup;  // may bump; runs before the baseline
  std::function<void(GenCtx&)> mutate;
};

std::vector<GenerationCase> generationCases() {
  const auto none = [](GenCtx&) {};
  const auto phi = [](GenCtx& c) { return cast<PhiInst>(c.inst["phi"]); };
  const auto sw = [](GenCtx& c) {
    return cast<SwitchInst>(c.block["a"]->terminator());
  };
  return {
      {"setOperand", none,
       [](GenCtx& c) { c.inst["s"]->setOperand(1, c.m->i64Const(3)); }},
      {"bindOperand",
       [](GenCtx& c) {
         c.pending = c.block["join"]->insertBefore(
             c.ret, Instruction::create({.opcode = Opcode::Add,
                                         .type = c.m->types().i64()},
                                        "x", 2));
       },
       [](GenCtx& c) { c.pending->bindOperand(0, c.inst["v"]); }},
      {"dropAllOperands", none,
       [](GenCtx& c) { c.inst["s"]->dropAllOperands(); }},
      {"removeOperandAt", none,
       [](GenCtx& c) { cast<CallInst>(c.inst["w"])->removeArg(0); }},
      {"setSuccessor", none,
       [](GenCtx& c) {
         c.block["b"]->terminator()->setSuccessor(0, c.block["a"]);
       }},
      {"addIncoming", none,
       [phi](GenCtx& c) {
         phi(c)->addIncoming(c.inst["v"], c.block["entry"]);
       }},
      {"removeIncoming", none,
       [phi](GenCtx& c) { phi(c)->removeIncoming(c.block["b"]); }},
      {"addCase", none,
       [sw](GenCtx& c) { sw(c)->addCase(c.m->i64Const(2), c.block["b"]); }},
      {"removeCase", none, [sw](GenCtx& c) { sw(c)->removeCase(0); }},
      {"pushBack", none,
       [](GenCtx& c) { c.block["b"]->pushBack(c.unreachable()); }},
      {"pushFront", none,
       [](GenCtx& c) { c.block["b"]->pushFront(c.unreachable()); }},
      {"insertBefore", none,
       [](GenCtx& c) {
         c.block["join"]->insertBefore(c.ret, c.unreachable());
       }},
      {"removeFromParent",
       [](GenCtx& c) { c.block["b"]->pushFront(c.unreachable()); },
       [](GenCtx& c) { c.loose = c.block["b"]->front()->removeFromParent(); }},
      {"eraseFromParent", none, [](GenCtx& c) { c.store->eraseFromParent(); }},
      {"moveBefore", none,
       [](GenCtx& c) { c.inst["gv"]->moveBefore(c.inst["p"]); }},
      {"moveBeforeTerminator", none,
       [](GenCtx& c) { c.inst["gv"]->moveBeforeTerminator(c.block["b"]); }},
      {"splitAt", none,
       [](GenCtx& c) { c.block["entry"]->splitAt(c.inst["c"], "tail"); }},
      {"addBlock", none, [](GenCtx& c) { c.f->addBlock("fresh"); }},
      {"addBlockAfter", none,
       [](GenCtx& c) { c.f->addBlockAfter(c.block["entry"], "fresh"); }},
      {"eraseBlock", [](GenCtx& c) { c.spare = c.f->addBlock("spare"); },
       [](GenCtx& c) { c.f->eraseBlock(c.spare); }},
      {"makeEntry", none, [](GenCtx& c) { c.f->makeEntry(c.block["join"]); }},
      {"removeArg", none, [](GenCtx& c) { c.f->removeArg(2); }},
      {"setFunctionTypeUnchecked", none,
       [](GenCtx& c) { c.f->setFunctionTypeUnchecked(c.f->functionType()); }},
      {"setPred", none,
       [](GenCtx& c) {
         cast<ICmpInst>(c.inst["c"])->setPred(ICmpInst::Pred::SGT);
       }},
      {"setAlignment (load)", none,
       [](GenCtx& c) { cast<LoadInst>(c.inst["v"])->setAlignment(8); }},
      {"setAlignment (store)", none,
       [](GenCtx& c) { cast<StoreInst>(c.store)->setAlignment(8); }},
      {"setVectorWidth", none,
       [](GenCtx& c) { c.inst["s"]->setVectorWidth(4); }},
      {"use list of an owned value (detached user)", none,
       [](GenCtx& c) {
         c.loose = Instruction::create(
             {.opcode = Opcode::Phi, .type = c.m->types().i64()}, "", 1);
         c.loose->bindOperand(0, c.f->arg(1));
       }},
      {"name present -> empty", none,
       [](GenCtx& c) { c.inst["v"]->setName(""); }},
      {"name empty -> present", none,
       [](GenCtx& c) { c.store->setName("named"); }},
      {"rename a referenced global", none,
       [](GenCtx& c) { c.m->getGlobal("g")->setName("g2"); }},
      {"rename a referenced function", none,
       [](GenCtx& c) { c.m->getFunction("callee")->setName("callee2"); }},
      {"ModuleSnapshot::restoreInto",
       [](GenCtx& c) { c.snapshot.capture(*c.m); },
       [](GenCtx& c) { c.snapshot.restoreInto(*c.m); }},
  };
}

TEST(BodyGenerationTest, EveryMutationEntryPointBumpsItsFunction) {
  for (const GenerationCase& gc : generationCases()) {
    GenCtx c = makeGenCtx();
    ASSERT_NE(c.f, nullptr);
    gc.setup(c);
    Function* h = c.m->getFunction("h");
    const std::uint64_t before = c.f->bodyGeneration();
    const std::uint64_t h_before = h->bodyGeneration();
    gc.mutate(c);
    EXPECT_GT(c.f->bodyGeneration(), before) << gc.entry_point;
    if (std::string(gc.entry_point) != "ModuleSnapshot::restoreInto") {
      EXPECT_EQ(h->bodyGeneration(), h_before)
          << gc.entry_point << " bumped an unrelated function";
    }
  }
}

TEST(BodyGenerationTest, ReadOnlyWalksBumpNothing) {
  GenCtx c = makeGenCtx();
  std::map<const Function*, std::uint64_t> before;
  for (const auto& f : c.m->functions()) before[f.get()] = f->bodyGeneration();
  (void)printModule(*c.m);
  (void)cloneModule(*c.m);
  c.snapshot.capture(*c.m);
  (void)moduleContentHash(*c.m);
  (void)verifyModule(*c.m);
  AnalysisManager am;
  FastVerifier fv;
  EXPECT_TRUE(fv.verify(*c.m, am).ok());
  for (const auto& f : c.m->functions()) {
    std::uint64_t aux = 0;
    (void)walkFingerprint(*f, aux);
    (void)fingerprintFunction(*f, &aux);
    if (f->isDeclaration()) continue;
    (void)am.loopInfo(*f);
    (void)am.liveness(*f);
  }
  for (const auto& f : c.m->functions())
    EXPECT_EQ(f->bodyGeneration(), before[f.get()]) << "@" << f->name();
}

TEST(FingerprintMemoTest, HitsUntilAWriteThenMatchesAFreshWalk) {
  GenCtx c = makeGenCtx();
  const FingerprintCounts start = fingerprintCounts();
  std::uint64_t aux = 0;
  const FunctionFingerprint first = fingerprintFunction(*c.f, &aux);
  const FunctionFingerprint again = fingerprintFunction(*c.f);
  EXPECT_EQ(first, again);
  EXPECT_EQ(fingerprintCounts().walks - start.walks, 1u);
  EXPECT_EQ(fingerprintCounts().memo_hits - start.memo_hits, 1u);

  cast<ICmpInst>(c.inst["c"])->setPred(ICmpInst::Pred::SGT);
  std::uint64_t fresh_aux = 0;
  const FunctionFingerprint after = fingerprintFunction(*c.f, &aux);
  EXPECT_EQ(fingerprintCounts().walks - start.walks, 2u);
  EXPECT_NE(after, first);
  EXPECT_EQ(after, walkFingerprint(*c.f, fresh_aux));
  EXPECT_EQ(aux, fresh_aux);
}

/// Pool-like programs as the compile service sees them: 2..15 kernels.
ProgramSpec poolLikeSpec(std::size_t j) {
  ProgramSpec spec;
  spec.name = "pool" + std::to_string(j);
  spec.seed = Rng::forStream(0x4e0e57, j).next();
  spec.kernels = 2 + static_cast<int>(j % 14);
  return spec;
}

TEST(FingerprintMemoTest, MemoMatchesFreshWalkAfterEveryOzPass) {
  std::size_t compared = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    auto m = generateProgram(poolLikeSpec(j));
    for (const std::string& pass : ozPassNames()) {
      warmFingerprintMemos(*m);
      runPassSequence(*m, {pass});
      compared += expectFingerprintMemosFresh(
          *m, "program " + std::to_string(j) + " after -" + pass);
    }
  }
  EXPECT_GT(compared, 0u);
}

// Work-counter gate: the sandboxed -Oz rung (verifier and contract checker
// at every pass boundary, analysis queries inside passes) walks a function
// only after something wrote to it. Without the memo the rung walks about
// 0.84 times per pass and defined function; with it, about 0.1.
TEST(FingerprintMemoTest, SandboxedOzRungWalkBudget) {
  const SandboxConfig sc = sandboxConfigFor(EnvConfig{});
  for (int kernels = 2; kernels <= 15; ++kernels) {
    ProgramSpec spec;
    spec.seed = Rng::forStream(0x4e0e57, static_cast<std::uint64_t>(kernels))
                    .next();
    spec.kernels = kernels;
    auto m = generateProgram(spec);
    std::size_t defined = 0;
    for (const auto& f : m->functions()) defined += !f->isDeclaration();
    const FingerprintCounts before = fingerprintCounts();
    const SandboxOutcome out = runActionSandboxed(m, ozPassNames(), sc);
    ASSERT_TRUE(out.ok) << out.fault.str();
    const std::uint64_t walks = fingerprintCounts().walks - before.walks;
    const double budget =
        0.3 * static_cast<double>(ozPassNames().size() * defined);
    EXPECT_LE(static_cast<double>(walks), budget)
        << kernels << " kernels, " << defined << " defined functions";
    EXPECT_GT(fingerprintCounts().memo_hits - before.memo_hits, walks);
  }
}

}  // namespace
}  // namespace posetrl
