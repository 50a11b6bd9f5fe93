// Unit tests for the MiniIR substrate: types, use-def bookkeeping, builder,
// verifier, printer/parser round-trip, and module cloning.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/ir_builder.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/snapshot.h"
#include "ir/verifier.h"

namespace posetrl {
namespace {

/// Builds: i64 @double_add(i64 a) { return (a + a) + 1; }
Function* buildDoubleAdd(Module& m) {
  TypeContext& tc = m.types();
  Function* f = m.createFunction("double_add",
                                 tc.funcType(tc.i64(), {tc.i64()}),
                                 Function::Linkage::External);
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  Value* sum = b.add(f->arg(0), f->arg(0));
  Value* inc = b.add(sum, m.i64Const(1));
  b.ret(inc);
  return f;
}

TEST(TypeTest, ScalarsInterned) {
  Module m("t");
  TypeContext& tc = m.types();
  EXPECT_EQ(tc.i64(), tc.intType(64));
  EXPECT_EQ(tc.ptrTo(tc.i64()), tc.ptrTo(tc.i64()));
  EXPECT_EQ(tc.arrayOf(tc.i32(), 4), tc.arrayOf(tc.i32(), 4));
  EXPECT_NE(tc.arrayOf(tc.i32(), 4), tc.arrayOf(tc.i32(), 5));
  EXPECT_EQ(tc.structOf({tc.i8(), tc.i64()}), tc.structOf({tc.i8(), tc.i64()}));
  EXPECT_EQ(tc.funcType(tc.voidTy(), {tc.i1()}),
            tc.funcType(tc.voidTy(), {tc.i1()}));
}

TEST(TypeTest, ByteSizes) {
  Module m("t");
  TypeContext& tc = m.types();
  EXPECT_EQ(tc.i1()->byteSize(), 1u);
  EXPECT_EQ(tc.i64()->byteSize(), 8u);
  EXPECT_EQ(tc.ptrTo(tc.i8())->byteSize(), 8u);
  EXPECT_EQ(tc.arrayOf(tc.i32(), 10)->byteSize(), 40u);
  EXPECT_EQ(tc.structOf({tc.i8(), tc.i64()})->byteSize(), 9u);
  EXPECT_EQ(tc.structOf({tc.i8(), tc.i64()})->structFieldOffset(1), 1u);
}

TEST(TypeTest, Spelling) {
  Module m("t");
  TypeContext& tc = m.types();
  EXPECT_EQ(tc.ptrTo(tc.i64())->str(), "ptr<i64>");
  EXPECT_EQ(tc.arrayOf(tc.i32(), 3)->str(), "[3 x i32]");
  EXPECT_EQ(tc.funcType(tc.i64(), {tc.i1(), tc.f64()})->str(),
            "fn(i1, f64) -> i64");
}

TEST(ConstantTest, IntsInternedAndCanonicalized) {
  Module m("t");
  EXPECT_EQ(m.i64Const(5), m.i64Const(5));
  EXPECT_NE(m.i64Const(5), m.i32Const(5));
  // i8 250 canonicalizes to -6 (sign-extended storage).
  ConstantInt* c = m.constantInt(m.types().i8(), 250);
  EXPECT_EQ(c->value(), -6);
  EXPECT_EQ(c->zextValue(), 250u);
  EXPECT_EQ(c, m.constantInt(m.types().i8(), -6));
}

TEST(UseDefTest, UsersTrackOperands) {
  Module m("t");
  Function* f = buildDoubleAdd(m);
  Argument* a = f->arg(0);
  // a is used twice by the first add.
  EXPECT_EQ(a->numUses(), 2u);
  Instruction* sum = f->entry()->front();
  EXPECT_EQ(sum->numUses(), 1u);
}

TEST(UseDefTest, ReplaceAllUsesWith) {
  Module m("t");
  Function* f = buildDoubleAdd(m);
  Argument* a = f->arg(0);
  ConstantInt* ten = m.i64Const(10);
  a->replaceAllUsesWith(ten);
  EXPECT_EQ(a->numUses(), 0u);
  EXPECT_EQ(ten->numUses(), 2u);
  Instruction* sum = f->entry()->front();
  EXPECT_EQ(sum->operand(0), ten);
  EXPECT_EQ(sum->operand(1), ten);
}

TEST(UseDefTest, EraseFromParentCleansUp) {
  Module m("t");
  Function* f = buildDoubleAdd(m);
  // ret uses inc; drop ret then inc then sum.
  BasicBlock* entry = f->entry();
  Instruction* ret = entry->terminator();
  ASSERT_NE(ret, nullptr);
  ret->eraseFromParent();
  Instruction* inc = entry->back();
  inc->eraseFromParent();
  Instruction* sum = entry->back();
  EXPECT_EQ(sum->numUses(), 0u);
  sum->eraseFromParent();
  EXPECT_TRUE(entry->empty());
  EXPECT_EQ(f->arg(0)->numUses(), 0u);
}

TEST(CfgTest, SuccessorsAndPredecessors) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("g", tc.funcType(tc.voidTy(), {tc.i1()}),
                                 Function::Linkage::Internal);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* a = f->addBlock("a");
  BasicBlock* b = f->addBlock("b");
  BasicBlock* exit = f->addBlock("exit");
  IRBuilder ib(&m);
  ib.setInsertPoint(entry);
  ib.condBr(f->arg(0), a, b);
  ib.setInsertPoint(a);
  ib.br(exit);
  ib.setInsertPoint(b);
  ib.br(exit);
  ib.setInsertPoint(exit);
  ib.retVoid();

  const auto succs = entry->successors();
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(succs[0], a);
  EXPECT_EQ(succs[1], b);
  const auto preds = exit->predecessors();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(exit->singlePredecessor(), nullptr);
  EXPECT_EQ(a->singlePredecessor(), entry);
  EXPECT_EQ(a->singleSuccessor(), exit);
  EXPECT_TRUE(verifyModule(m).ok()) << verifyModule(m).message();
}

TEST(VerifierTest, AcceptsWellFormed) {
  Module m("t");
  buildDoubleAdd(m);
  const auto r = verifyModule(m);
  EXPECT_TRUE(r.ok()) << r.message();
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("f", tc.funcType(tc.voidTy(), {}),
                                 Function::Linkage::Internal);
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.add(m.i64Const(1), m.i64Const(2));
  const auto r = verifyModule(m);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsUseBeforeDefInBlock) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("f", tc.funcType(tc.i64(), {}),
                                 Function::Linkage::Internal);
  BasicBlock* entry = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  Value* x = b.add(m.i64Const(1), m.i64Const(2));
  Value* y = b.add(x, m.i64Const(3));
  b.ret(y);
  // Move y's def before x's def: now y uses x before it is defined.
  cast<Instruction>(y)->moveBefore(cast<Instruction>(x));
  const auto r = verifyModule(m);
  EXPECT_FALSE(r.ok());
}

TEST(VerifierTest, RejectsPhiMismatch) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("f", tc.funcType(tc.i64(), {tc.i1()}),
                                 Function::Linkage::Internal);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* a = f->addBlock("a");
  BasicBlock* join = f->addBlock("join");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.condBr(f->arg(0), a, join);
  b.setInsertPoint(a);
  b.br(join);
  b.setInsertPoint(join);
  PhiInst* phi = b.phi(tc.i64());
  phi->addIncoming(m.i64Const(1), a);  // Missing edge from entry.
  b.ret(phi);
  const auto r = verifyModule(m);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("phi"), std::string::npos);
}

TEST(PrinterTest, InstructionSpelling) {
  Module m("t");
  Function* f = buildDoubleAdd(m);
  Instruction* sum = f->entry()->front();
  const std::string text = printInstruction(*sum);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("%arg0"), std::string::npos);
}

/// A module exercising every construct for round-trip testing.
const char* kRichModule = R"(
module "rich"

global @counter : i64 = int 7, internal
global @table : [4 x i32] = array [1, 2, 3, 4], internal, const
global @zeroed : {i64, f64} = zero, external

declare @pr.input : fn(i64) -> i64 attrs [readnone, nounwind] intrinsic input
declare @pr.sink : fn(i64) -> void attrs [nounwind] intrinsic sink

define @helper : fn(i64) -> i64 internal attrs [noinline] {
block entry.0:
  %dbl : i64 = mul %arg0, i64 2
  ret %dbl
}

define @main : fn() -> i64 external {
block entry.0:
  %buf : ptr<[4 x i64]> = alloca [4 x i64]
  %p0 : ptr<i64> = gep %buf [i64 0, i64 0]
  store i64 11, %p0 align 8
  %inp : i64 = call @pr.input(i64 0)
  br label loop.1
block loop.1:
  %i : i64 = phi [ i64 0, entry.0 ], [ %inext, loop.1 ]
  %acc : i64 = phi [ i64 0, entry.0 ], [ %accnext, loop.1 ]
  %h : i64 = call @helper(%i)
  %accnext : i64 = add %acc, %h
  %inext : i64 = add %i, i64 1
  %done : i1 = icmp sge %inext, %inp
  condbr %done, label exit.2, label loop.1
block exit.2:
  %v : i64 = load %p0 align 8
  %sel : i64 = select %done, %accnext, %v
  %f : f64 = sitofp %sel
  %fx : f64 = fmul %f, f64 1.5
  %back : i64 = fptosi %fx
  %narrow : i32 = trunc %back
  %wide : i64 = sext %narrow
  call @pr.sink(%wide)
  switch %wide, default label done.3, [1 -> label exit.2b.4, 2 -> label done.3]
block exit.2b.4:
  br label done.3
block done.3:
  %r : i64 = phi [ %wide, exit.2 ], [ i64 0, exit.2b.4 ]
  ret %r
}
)";

TEST(ParserTest, ParsesRichModule) {
  std::string err;
  auto m = parseModule(kRichModule, &err);
  ASSERT_NE(m, nullptr) << err;
  const auto r = verifyModule(*m);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_NE(m->getFunction("main"), nullptr);
  EXPECT_NE(m->getGlobal("counter"), nullptr);
  EXPECT_EQ(m->getGlobal("table")->init().elements.size(), 4u);
  EXPECT_TRUE(m->getGlobal("table")->isConst());
  EXPECT_EQ(m->getFunction("pr.input")->intrinsicId(), IntrinsicId::Input);
}

TEST(ParserTest, PrintParseFixpoint) {
  std::string err;
  auto m1 = parseModule(kRichModule, &err);
  ASSERT_NE(m1, nullptr) << err;
  const std::string p1 = printModule(*m1);
  auto m2 = parseModule(p1, &err);
  ASSERT_NE(m2, nullptr) << err << "\n--- printed ---\n" << p1;
  const std::string p2 = printModule(*m2);
  EXPECT_EQ(p1, p2);
  EXPECT_TRUE(verifyModule(*m2).ok()) << verifyModule(*m2).message();
}

TEST(ParserTest, ReportsErrorWithLine) {
  std::string err;
  auto m = parseModule("module \"x\"\ndefine @f : bogus {\n}", &err);
  EXPECT_EQ(m, nullptr);
  EXPECT_NE(err.find("line"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownValue) {
  std::string err;
  auto m = parseModule(
      "module \"x\"\n"
      "define @f : fn() -> i64 internal {\n"
      "block e.0:\n"
      "  ret %nope\n"
      "}\n",
      &err);
  EXPECT_EQ(m, nullptr);
  EXPECT_NE(err.find("nope"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateSymbolsInsteadOfAborting) {
  const char* kFn =
      "define @f : fn() -> i64 internal {\n"
      "block e.0:\n"
      "  ret i64 0\n"
      "}\n";
  const std::string duplicates[] = {
      std::string("module \"x\"\n") + kFn + kFn,
      "module \"x\"\n"
      "global @g : i64 = zero, internal\n"
      "global @g : i64 = zero, internal\n",
  };
  for (const std::string& text : duplicates) {
    std::string err;
    EXPECT_EQ(parseModule(text, &err), nullptr);
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  }
}

TEST(CloneTest, ModuleCloneIsDeepAndEqual) {
  std::string err;
  auto m1 = parseModule(kRichModule, &err);
  ASSERT_NE(m1, nullptr) << err;
  auto m2 = cloneModule(*m1);
  ASSERT_NE(m2, nullptr);
  EXPECT_TRUE(verifyModule(*m2).ok()) << verifyModule(*m2).message();
  EXPECT_EQ(printModule(*m1), printModule(*m2));
  // Mutating the clone must not affect the original.
  Function* main2 = m2->getFunction("main");
  ASSERT_NE(main2, nullptr);
  const std::string before = printModule(*m1);
  main2->entry()->front();  // touch
  Instruction* term = main2->entry()->terminator();
  ASSERT_NE(term, nullptr);
  EXPECT_EQ(printModule(*m1), before);
}

TEST(CloneTest, CloneSurvivesSourceDestruction) {
  std::string err;
  auto m1 = parseModule(kRichModule, &err);
  ASSERT_NE(m1, nullptr) << err;
  auto m2 = cloneModule(*m1);
  const std::string p1 = printModule(*m1);
  m1.reset();
  // Types and constants of the clone must be owned by the clone.
  EXPECT_EQ(printModule(*m2), p1);
  EXPECT_TRUE(verifyModule(*m2).ok());
}

/// Every opcode once (each icmp/fcmp predicate once), every attribute off
/// its default: vector width 4 everywhere, alignment 8, and an alloca type
/// distinct from the GEP source element type. Uses are registered in layout
/// order (the phi's back edge is added before the block's later users), the
/// order every copy path binds in.
std::unique_ptr<Module> buildAllOpcodes() {
  auto m = std::make_unique<Module>("all_opcodes");
  TypeContext& tc = m->types();
  Type* pair = tc.structOf({tc.i64(), tc.f64()});
  Function* callee = m->createFunction(
      "callee", tc.funcType(tc.i64(), {tc.i64()}), Function::Linkage::External);
  Function* f = m->createFunction(
      "all",
      tc.funcType(tc.i64(),
                  {tc.i64(), tc.f64(), tc.ptrTo(tc.i64()), tc.ptrTo(pair)}),
      Function::Linkage::External);
  Value* a = f->arg(0);
  Value* x = f->arg(1);
  Value* q = f->arg(2);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* loop = f->addBlock("loop");
  BasicBlock* dead = f->addBlock("dead");
  BasicBlock* other = f->addBlock("other");
  BasicBlock* exit = f->addBlock("exit");
  IRBuilder b(m.get());

  b.setInsertPoint(entry);
  b.alloca_(tc.arrayOf(tc.i32(), 3));
  b.gep(f->arg(3), {m->i64Const(0), m->i32Const(1)});
  LoadInst* v = b.load(q);
  v->setAlignment(8);
  b.store(v, q)->setAlignment(8);
  for (Opcode op = Opcode::Add; op <= Opcode::Xor;
       op = static_cast<Opcode>(static_cast<int>(op) + 1)) {
    b.binary(op, a, v);
  }
  for (Opcode op = Opcode::FAdd; op <= Opcode::FDiv;
       op = static_cast<Opcode>(static_cast<int>(op) + 1)) {
    b.binary(op, x, x);
  }
  Value* c = nullptr;
  for (int p = 0; p <= static_cast<int>(ICmpInst::Pred::UGE); ++p) {
    c = b.icmp(static_cast<ICmpInst::Pred>(p), a, v);
  }
  for (int p = 0; p <= static_cast<int>(FCmpInst::Pred::OGE); ++p) {
    b.fcmp(static_cast<FCmpInst::Pred>(p), x, x);
  }
  b.castOp(Opcode::ZExt, tc.i64(), c);
  b.castOp(Opcode::SExt, tc.i64(), c);
  b.castOp(Opcode::Trunc, tc.i32(), a);
  b.castOp(Opcode::SIToFP, tc.f64(), a);
  b.castOp(Opcode::FPToSI, tc.i64(), x);
  b.select(c, a, v);
  b.call(callee, {a});
  b.condBr(c, loop, other);

  b.setInsertPoint(loop);
  PhiInst* phi = b.phi(tc.i64());
  phi->addIncoming(a, entry);
  Value* w = b.add(phi, m->i64Const(1));
  phi->addIncoming(w, loop);
  SwitchInst* sw = b.switchOp(w, exit);
  sw->addCase(m->i64Const(1), loop);
  sw->addCase(m->i64Const(2), dead);

  b.setInsertPoint(dead);
  b.unreachable();
  b.setInsertPoint(other);
  b.br(exit);
  b.setInsertPoint(exit);
  b.ret(a);

  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->insts()) inst->setVectorWidth(4);
  }
  return m;
}

/// \p a with every type spelled out, so records of different modules compare.
std::string spell(const InstAttrs& a) {
  return std::string(opcodeName(a.opcode)) + " " + a.type->str() + " " +
         (a.extra_type != nullptr ? a.extra_type->str() : "-") + " " +
         std::to_string(a.pred) + " " + std::to_string(a.align) + " " +
         std::to_string(a.vector_width);
}

/// Layout-order view of a module: each instruction's spelled attrs, and for
/// each of its operands that operand's user list as layout indices.
struct Layout {
  std::vector<std::string> attrs;
  std::vector<std::vector<int>> users;
  bool operator==(const Layout&) const = default;
};

Layout layoutOf(const Module& m) {
  std::map<const Instruction*, int> index;
  std::vector<const Instruction*> insts;
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        index[inst.get()] = static_cast<int>(insts.size());
        insts.push_back(inst.get());
      }
    }
  }
  Layout out;
  for (const Instruction* inst : insts) {
    out.attrs.push_back(spell(inst->attrs()));
    for (const Value* op : inst->operands()) {
      std::vector<int> users;
      for (const Instruction* u : op->users()) users.push_back(index.at(u));
      out.users.push_back(std::move(users));
    }
  }
  return out;
}

TEST(InstAttrsTest, EveryCopyPathPreservesAttrsTextAndUseOrder) {
  auto m = buildAllOpcodes();
  ASSERT_TRUE(verifyModule(*m).ok()) << verifyModule(*m).message();
  std::set<Opcode> seen;
  for (const auto& bb : m->getFunction("all")->blocks()) {
    for (const auto& inst : bb->insts()) seen.insert(inst->opcode());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(Opcode::FPToSI) + 1);
  const std::string text = printModule(*m);
  const Layout layout = layoutOf(*m);

  // Instruction::clone: same record, text and operands; the clone joins
  // each operand's user list after every existing user, in operand order.
  for (const auto& bb : m->getFunction("all")->blocks()) {
    for (const auto& inst : bb->insts()) {
      std::unique_ptr<Instruction> c(inst->clone());
      EXPECT_EQ(c->attrs(), inst->attrs()) << printInstruction(*inst);
      EXPECT_EQ(printInstruction(*c), printInstruction(*inst));
      ASSERT_EQ(c->operands(), inst->operands());
      std::map<const Value*, std::size_t> slots;
      for (const Value* op : c->operands()) ++slots[op];
      for (const auto& [op, n] : slots) {
        const auto& users = op->users();
        ASSERT_GE(users.size(), n);
        for (std::size_t k = users.size() - n; k < users.size(); ++k) {
          EXPECT_EQ(users[k], c.get()) << printInstruction(*inst);
        }
      }
      c->dropAllOperands();
    }
  }
  EXPECT_EQ(layoutOf(*m), layout);

  // cloneModule.
  auto copy = cloneModule(*m);
  EXPECT_EQ(printModule(*copy), text);
  EXPECT_EQ(layoutOf(*copy), layout);

  // Snapshot capture -> restore, after the body was emptied.
  ModuleSnapshot snap;
  snap.capture(*m);
  std::vector<InstAttrs> records;
  for (const auto& bb : m->getFunction("all")->blocks()) {
    for (const auto& inst : bb->insts()) records.push_back(inst->attrs());
  }
  m->eraseFunction(m->getFunction("all"));
  snap.restoreInto(*m);
  std::size_t i = 0;
  for (const auto& bb : m->getFunction("all")->blocks()) {
    for (const auto& inst : bb->insts()) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(inst->attrs(), records[i++]);
    }
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(printModule(*m), text);
  EXPECT_EQ(layoutOf(*m), layout);
}

TEST(BlockTest, SplitAtMovesTail) {
  Module m("t");
  Function* f = buildDoubleAdd(m);
  BasicBlock* entry = f->entry();
  Instruction* inc = nullptr;
  for (auto& inst : entry->insts()) {
    if (inst->name() == "t1") inc = inst.get();
  }
  ASSERT_NE(inc, nullptr);
  BasicBlock* tail = entry->splitAt(inc, "tail");
  // entry: [sum], tail: [inc, ret]; add a branch to make it well-formed.
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.br(tail);
  EXPECT_EQ(entry->size(), 2u);
  EXPECT_EQ(tail->size(), 2u);
  EXPECT_TRUE(verifyModule(m).ok()) << verifyModule(m).message();
}

TEST(FunctionTest, RemoveArgRewritesType) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("f", tc.funcType(tc.i64(), {tc.i64(), tc.i32()}),
                                 Function::Linkage::Internal);
  BasicBlock* e = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(e);
  b.ret(f->arg(0));
  f->removeArg(1);
  EXPECT_EQ(f->numArgs(), 1u);
  EXPECT_EQ(f->functionType()->str(), "fn(i64) -> i64");
}

TEST(PhiTest, UniformValueDetection) {
  Module m("t");
  TypeContext& tc = m.types();
  Function* f = m.createFunction("f", tc.funcType(tc.i64(), {tc.i1()}),
                                 Function::Linkage::Internal);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* a = f->addBlock("a");
  BasicBlock* join = f->addBlock("join");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.condBr(f->arg(0), a, join);
  b.setInsertPoint(a);
  b.br(join);
  b.setInsertPoint(join);
  PhiInst* phi = b.phi(tc.i64());
  phi->addIncoming(m.i64Const(5), a);
  phi->addIncoming(m.i64Const(5), entry);
  b.ret(phi);
  EXPECT_EQ(phi->uniformValue(), m.i64Const(5));
  phi->setIncomingValue(0, m.i64Const(6));
  EXPECT_EQ(phi->uniformValue(), nullptr);
}

}  // namespace
}  // namespace posetrl
