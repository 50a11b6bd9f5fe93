#include "ir/clone.h"

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "support/error.h"

namespace posetrl {

Type* mapType(TypeContext& dst, const Type* src) {
  switch (src->kind()) {
    case Type::Kind::Void: return dst.voidTy();
    case Type::Kind::I1: return dst.i1();
    case Type::Kind::I8: return dst.i8();
    case Type::Kind::I16: return dst.i16();
    case Type::Kind::I32: return dst.i32();
    case Type::Kind::I64: return dst.i64();
    case Type::Kind::F64: return dst.f64();
    case Type::Kind::Ptr:
      return dst.ptrTo(mapType(dst, src->pointee()));
    case Type::Kind::Array:
      return dst.arrayOf(mapType(dst, src->arrayElement()),
                         src->arrayCount());
    case Type::Kind::Struct: {
      std::vector<Type*> fields;
      for (Type* f : src->structFields()) fields.push_back(mapType(dst, f));
      return dst.structOf(std::move(fields));
    }
    case Type::Kind::Func: {
      std::vector<Type*> params;
      for (Type* p : src->funcParams()) params.push_back(mapType(dst, p));
      return dst.funcType(mapType(dst, src->funcReturn()),
                          std::move(params));
    }
  }
  POSETRL_UNREACHABLE("bad type kind");
}

namespace {

/// Maps an operand into the destination module: vmap entries win; constants
/// are re-interned; everything else must have been mapped already.
Value* mapOperandCrossModule(Module& dst, const ValueMap& vmap,
                             const Value* v) {
  auto it = vmap.find(v);
  if (it != vmap.end()) return it->second;
  switch (v->kind()) {
    case Value::Kind::ConstantInt: {
      const auto* c = static_cast<const ConstantInt*>(v);
      return dst.constantInt(mapType(dst.types(), c->type()), c->value());
    }
    case Value::Kind::ConstantFloat:
      return dst.constantFloat(
          static_cast<const ConstantFloat*>(v)->value());
    case Value::Kind::ConstantNull:
      return dst.nullConst(mapType(dst.types(), v->type()));
    case Value::Kind::Undef:
      return dst.undef(mapType(dst.types(), v->type()));
    default:
      POSETRL_UNREACHABLE("unmapped value during module clone");
  }
}

/// Re-creates \p inst with destination-context types. Operands are left as
/// source-module pointers; the caller remaps them afterwards. Successor
/// blocks must already exist in \p vmap (they are remapped later too).
Instruction* recreateInstruction(Module& dst, const Instruction& inst) {
  TypeContext& tc = dst.types();
  Type* ty = mapType(tc, inst.type());
  const std::string& name = inst.name();
  Instruction* out = nullptr;
  switch (inst.opcode()) {
    case Opcode::Alloca: {
      const auto& a = static_cast<const AllocaInst&>(inst);
      out = new AllocaInst(ty, mapType(tc, a.allocatedType()), name);
      break;
    }
    case Opcode::Load: {
      const auto& l = static_cast<const LoadInst&>(inst);
      auto* n = new LoadInst(ty, l.pointer(), name);
      n->setAlignment(l.alignment());
      out = n;
      break;
    }
    case Opcode::Store: {
      const auto& s = static_cast<const StoreInst&>(inst);
      auto* n = new StoreInst(ty, s.value(), s.pointer());
      n->setAlignment(s.alignment());
      out = n;
      break;
    }
    case Opcode::Gep: {
      const auto& g = static_cast<const GepInst&>(inst);
      std::vector<Value*> indices;
      for (std::size_t i = 0; i < g.numIndices(); ++i) {
        indices.push_back(g.index(i));
      }
      out = new GepInst(ty, mapType(tc, g.sourceElement()), g.base(),
                        std::move(indices), name);
      break;
    }
    case Opcode::Phi: {
      const auto& p = static_cast<const PhiInst&>(inst);
      auto* n = new PhiInst(ty, name);
      for (std::size_t i = 0; i < p.numIncoming(); ++i) {
        n->addIncoming(p.incomingValue(i), p.incomingBlock(i));
      }
      out = n;
      break;
    }
    case Opcode::Call: {
      const auto& c = static_cast<const CallInst&>(inst);
      std::vector<Value*> args;
      for (std::size_t i = 0; i < c.numArgs(); ++i) args.push_back(c.arg(i));
      out = new CallInst(ty, c.callee(), std::move(args), name);
      break;
    }
    case Opcode::Ret: {
      const auto& r = static_cast<const RetInst&>(inst);
      out = new RetInst(ty, r.hasValue() ? r.value() : nullptr);
      break;
    }
    case Opcode::Br:
      out = new BrInst(ty, inst.successor(0));
      break;
    case Opcode::CondBr: {
      const auto& b = static_cast<const CondBrInst&>(inst);
      out = new CondBrInst(ty, b.condition(), b.thenBlock(), b.elseBlock());
      break;
    }
    case Opcode::Switch: {
      const auto& s = static_cast<const SwitchInst&>(inst);
      auto* n = new SwitchInst(ty, s.condition(), s.defaultBlock());
      for (std::size_t i = 0; i < s.numCases(); ++i) {
        n->addCase(s.caseValue(i), s.caseBlock(i));
      }
      out = n;
      break;
    }
    case Opcode::Unreachable:
      out = new UnreachableInst(ty);
      break;
    case Opcode::Select: {
      const auto& s = static_cast<const SelectInst&>(inst);
      out = new SelectInst(ty, s.condition(), s.trueValue(), s.falseValue(),
                           name);
      break;
    }
    case Opcode::ICmp: {
      const auto& c = static_cast<const ICmpInst&>(inst);
      out = new ICmpInst(ty, c.pred(), c.lhs(), c.rhs(), name);
      break;
    }
    case Opcode::FCmp: {
      const auto& c = static_cast<const FCmpInst&>(inst);
      out = new FCmpInst(ty, c.pred(), c.lhs(), c.rhs(), name);
      break;
    }
    default: {
      if (inst.isBinaryOp()) {
        out = new BinaryInst(inst.opcode(), ty, inst.operand(0),
                             inst.operand(1), name);
      } else if (inst.isCast()) {
        out = new CastInst(inst.opcode(), ty, inst.operand(0), name);
      } else {
        POSETRL_UNREACHABLE("unhandled opcode in recreateInstruction");
      }
      break;
    }
  }
  out->setVectorWidth(inst.vectorWidth());
  return out;
}

}  // namespace

std::unique_ptr<Module> cloneModule(const Module& src) {
  auto dst = std::make_unique<Module>(src.name());
  // Clone bodies into the destination's own bump arena.
  ArenaScope arena_scope(dst->arena());
  ValueMap vmap;

  // Pass 1: create all function shells and globals so references resolve.
  for (const auto& f : src.functions()) {
    Type* fty = mapType(dst->types(), f->functionType());
    Function* nf = dst->createFunction(f->name(), fty, f->linkage());
    nf->setRawAttrs(f->rawAttrs());
    nf->setIntrinsicId(f->intrinsicId());
    vmap[f.get()] = nf;
    for (std::size_t i = 0; i < f->numArgs(); ++i) {
      nf->arg(i)->setName(f->arg(i)->name());
      vmap[f->arg(i)] = nf->arg(i);
    }
  }
  for (const auto& g : src.globals()) {
    GlobalInit init = g->init();
    if (init.kind == GlobalInit::Kind::FuncPtr) {
      init.function = cast<Function>(vmap.at(init.function));
    }
    GlobalVariable* ng = dst->createGlobal(
        g->name(), mapType(dst->types(), g->valueType()), std::move(init),
        g->linkage(), g->isConst());
    vmap[g.get()] = ng;
  }

  // Pass 2: clone bodies — blocks first, then instructions with original
  // operand pointers, then a remap sweep.
  for (const auto& f : src.functions()) {
    if (f->isDeclaration()) continue;
    Function* nf = cast<Function>(vmap.at(f.get()));
    for (const auto& bb : f->blocks()) {
      BasicBlock* nb = nf->addBlock("c");
      nb->setName(bb->name());  // Keep the exact original label.
      vmap[bb.get()] = nb;
    }
    std::vector<Instruction*> new_insts;
    {
      // The clones are built holding source-module operand pointers;
      // suspend user registration so construction never mutates the source
      // — it may be shared with other threads cloning it concurrently
      // (e.g. one serving request fanned out across workers).
      UserTrackingSuspender suspend;
      for (const auto& bb : f->blocks()) {
        auto* nb = cast<BasicBlock>(vmap.at(bb.get()));
        for (const auto& inst : bb->insts()) {
          Instruction* cloned = recreateInstruction(*dst, *inst);
          nb->pushBack(std::unique_ptr<Instruction>(cloned));
          vmap[inst.get()] = cloned;
          new_insts.push_back(cloned);
        }
      }
    }
    for (Instruction* inst : new_insts) {
      for (std::size_t i = 0; i < inst->numOperands(); ++i) {
        inst->rebindOperandForClone(
            i, mapOperandCrossModule(*dst, vmap, inst->operand(i)));
      }
    }
    // The names were copied verbatim, so the counters must be too (the
    // addBlock calls above advanced next_block_ by the block count only):
    // passes run on the clone then mint names the source never used.
    nf->next_value_ = f->next_value_;
    nf->next_block_ = f->next_block_;
  }
  return dst;
}

std::vector<BasicBlock*> cloneBlocksInto(Function* dst_func,
                                         const Function& src,
                                         ValueMap& map) {
  std::vector<BasicBlock*> new_blocks;
  for (const auto& bb : src.blocks()) {
    BasicBlock* nb = dst_func->addBlock(bb->name());
    map[bb.get()] = nb;
    new_blocks.push_back(nb);
  }
  std::vector<Instruction*> new_insts;
  for (const auto& bb : src.blocks()) {
    auto* nb = cast<BasicBlock>(map.at(bb.get()));
    for (const auto& inst : bb->insts()) {
      Instruction* cloned = inst->clone();
      if (!cloned->type()->isVoid()) {
        cloned->setName(dst_func->nextValueName());
      }
      nb->pushBack(std::unique_ptr<Instruction>(cloned));
      map[inst.get()] = cloned;
      new_insts.push_back(cloned);
    }
  }
  for (Instruction* inst : new_insts) {
    for (std::size_t i = 0; i < inst->numOperands(); ++i) {
      auto it = map.find(inst->operand(i));
      if (it != map.end()) inst->setOperand(i, it->second);
    }
  }
  return new_blocks;
}

}  // namespace posetrl
