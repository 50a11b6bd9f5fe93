#include "ir/structural_hash.h"

#include <cstring>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "support/hashing.h"

namespace posetrl {

std::uint64_t structuralTypeHash(const Type* t) {
  if (t == nullptr) return 0x9e3779b97f4a7c15ull;
  if (const std::uint64_t cached = t->analysisHashCache(); cached != 0)
    return cached;
  std::uint64_t h =
      hashCombine(0x51ed2701, static_cast<std::uint64_t>(t->kind()));
  switch (t->kind()) {
    case Type::Kind::Ptr:
      h = hashCombine(h, structuralTypeHash(t->pointee()));
      break;
    case Type::Kind::Array:
      h = hashCombine(hashCombine(h, structuralTypeHash(t->arrayElement())),
                      t->arrayCount());
      break;
    case Type::Kind::Struct:
      for (const Type* field : t->structFields())
        h = hashCombine(h, structuralTypeHash(field));
      break;
    case Type::Kind::Func:
      h = hashCombine(h, structuralTypeHash(t->funcReturn()));
      for (const Type* p : t->funcParams())
        h = hashCombine(h, structuralTypeHash(p));
      break;
    default:
      break;
  }
  h |= 1;  // Reserve 0 as the not-yet-computed sentinel.
  t->setAnalysisHashCache(h);
  return h;
}

std::uint64_t hashInstAttrs(std::uint64_t h, const InstAttrs& a) {
  // The small fields share one word (an alignment or width past 2^24 only
  // weakens the hash, never breaks equality of equal records).
  const std::uint64_t small =
      static_cast<std::uint64_t>(a.opcode) |
      static_cast<std::uint64_t>(static_cast<std::uint8_t>(a.pred)) << 8 |
      static_cast<std::uint64_t>(a.align) << 16 |
      static_cast<std::uint64_t>(a.vector_width) << 40;
  h = hashCombine(h, small);
  h = hashCombine(h, structuralTypeHash(a.type));
  if (a.extra_type != nullptr) {
    h = hashCombine(h, structuralTypeHash(a.extra_type));
  }
  return h;
}

namespace {

std::uint64_t hashTypePtr(const Type* t) { return structuralTypeHash(t); }

std::uint64_t hashOperand(const Value* v, std::uint64_t gen) {
  if (v->fingerprintIdValid(gen)) return hashCombine(1, v->fingerprintId());
  switch (v->kind()) {
    case Value::Kind::ConstantInt: {
      const auto* c = static_cast<const ConstantInt*>(v);
      return hashCombine(hashCombine(2, hashTypePtr(c->type())),
                         static_cast<std::uint64_t>(c->value()));
    }
    case Value::Kind::ConstantFloat: {
      std::uint64_t bits = 0;
      const double d = static_cast<const ConstantFloat*>(v)->value();
      std::memcpy(&bits, &d, sizeof(bits));
      return hashCombine(3, bits);
    }
    case Value::Kind::ConstantNull:
      return hashCombine(4, hashTypePtr(v->type()));
    case Value::Kind::Undef:
      return hashCombine(5, hashTypePtr(v->type()));
    default:
      // A value outside this module: should not happen on verified IR.
      return 9;
  }
}

}  // namespace

std::uint64_t moduleContentHash(const Module& m) {
  const std::uint64_t gen = Value::nextStampGeneration();
  std::uint64_t next_id = 0;
  for (const auto& f : m.functions()) {
    f->stampFingerprintId(gen, next_id++);
    for (const auto& a : f->args()) a->stampFingerprintId(gen, next_id++);
    for (const auto& bb : f->blocks()) {
      bb->stampFingerprintId(gen, next_id++);
      for (const auto& inst : bb->insts()) {
        inst->stampFingerprintId(gen, next_id++);
      }
    }
  }
  for (const auto& g : m.globals()) g->stampFingerprintId(gen, next_id++);

  std::uint64_t h = fnv1a(m.name());
  for (const auto& g : m.globals()) {
    h = hashCombine(h, fnv1a(g->name()));
    h = hashCombine(h, hashTypePtr(g->valueType()));
    h = hashCombine(h, static_cast<std::uint64_t>(g->linkage()));
    h = hashCombine(h, g->isConst() ? 1u : 0u);
    const GlobalInit& init = g->init();
    h = hashCombine(h, static_cast<std::uint64_t>(init.kind));
    switch (init.kind) {
      case GlobalInit::Kind::Zero:
        break;
      case GlobalInit::Kind::Int:
        h = hashCombine(h, static_cast<std::uint64_t>(init.int_value));
        break;
      case GlobalInit::Kind::Float: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &init.float_value, sizeof(bits));
        h = hashCombine(h, bits);
        break;
      }
      case GlobalInit::Kind::IntArray:
        h = hashCombine(h, init.elements.size());
        for (std::int64_t e : init.elements) {
          h = hashCombine(h, static_cast<std::uint64_t>(e));
        }
        break;
      case GlobalInit::Kind::FuncPtr:
        h = hashCombine(h, fnv1a(init.function->name()));
        break;
    }
  }
  for (const auto& f : m.functions()) {
    h = hashCombine(h, fnv1a(f->name()));
    h = hashCombine(h, hashTypePtr(f->functionType()));
    h = hashCombine(h, static_cast<std::uint64_t>(f->linkage()));
    h = hashCombine(h, f->rawAttrs());
    h = hashCombine(h, static_cast<std::uint64_t>(f->intrinsicId()));
    for (const auto& a : f->args()) h = hashCombine(h, fnv1a(a->name()));
    for (const auto& bb : f->blocks()) {
      h = hashCombine(h, fnv1a(bb->name()));
      h = hashCombine(h, bb->size());
      for (const auto& inst : bb->insts()) {
        h = hashInstAttrs(h, inst->attrs());
        h = hashCombine(h, fnv1a(inst->name()));
        for (const Value* op : inst->operands()) {
          h = hashCombine(h, hashOperand(op, gen));
        }
      }
    }
  }
  return h;
}

}  // namespace posetrl
