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

/// \p dst's interned twin of the constant \p c of another module.
Value* importConstant(Module& dst, const Value* c) {
  switch (c->kind()) {
    case Value::Kind::ConstantInt:
      return dst.constantInt(mapType(dst.types(), c->type()),
                             static_cast<const ConstantInt*>(c)->value());
    case Value::Kind::ConstantFloat:
      return dst.constantFloat(static_cast<const ConstantFloat*>(c)->value());
    case Value::Kind::ConstantNull:
      return dst.nullConst(mapType(dst.types(), c->type()));
    case Value::Kind::Undef:
      return dst.undef(mapType(dst.types(), c->type()));
    default:
      POSETRL_UNREACHABLE("unmapped value during module clone");
  }
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

  // Pass 2: clone bodies — blocks first, then every instruction with
  // unbound operand slots (operands may be forward references), then a
  // bind sweep through the value map. Only destination values are ever
  // bound, so the source is only read: it may be shared with other threads
  // cloning it concurrently (e.g. one serving request fanned out across
  // workers).
  TypeContext& tc = dst->types();
  std::vector<Instruction*> new_insts;
  for (const auto& f : src.functions()) {
    if (f->isDeclaration()) continue;
    Function* nf = cast<Function>(vmap.at(f.get()));
    for (const auto& bb : f->blocks()) {
      BasicBlock* nb = nf->addBlock("c");
      nb->setName(bb->name());  // Keep the exact original label.
      vmap[bb.get()] = nb;
    }
    new_insts.clear();
    for (const auto& bb : f->blocks()) {
      auto* nb = cast<BasicBlock>(vmap.at(bb.get()));
      for (const auto& inst : bb->insts()) {
        InstAttrs attrs = inst->attrs();
        attrs.type = mapType(tc, attrs.type);
        if (attrs.extra_type != nullptr) {
          attrs.extra_type = mapType(tc, attrs.extra_type);
        }
        Instruction* cloned = nb->pushBack(
            Instruction::create(attrs, inst->name(), inst->numOperands()));
        vmap[inst.get()] = cloned;
        new_insts.push_back(cloned);
      }
    }
    std::size_t ci = 0;
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        Instruction* cloned = new_insts[ci++];
        for (std::size_t i = 0; i < inst->numOperands(); ++i) {
          const Value* op = inst->operand(i);
          auto it = vmap.find(op);
          cloned->bindOperand(
              i, it != vmap.end() ? it->second : importConstant(*dst, op));
        }
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
