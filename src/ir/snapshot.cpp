#include "ir/snapshot.h"

#include <string_view>
#include <unordered_map>

#include "ir/basic_block.h"
#include "ir/module.h"
#include "support/arena.h"
#include "support/error.h"

namespace posetrl {

std::uint64_t ModuleSnapshot::encodeOperand(const Value* v,
                                            std::uint64_t gen) const {
  if (v->fingerprintIdValid(gen)) return (v->fingerprintId() << 1) | 1u;
  // Not stamped: must be an interned constant (stable pointer). Anything
  // else here means the module references a value outside itself.
  POSETRL_CHECK(v->isConstant(),
                "snapshot: operand is neither local nor constant");
  const auto p = reinterpret_cast<std::uint64_t>(v);
  return p;  // heap pointers are >= 8-aligned, so LSB is 0
}

bool ModuleSnapshot::matches(const Module& m) const {
  return source_ == &m && content_stamp_ == m.contentStamp();
}

void ModuleSnapshot::capture(const Module& m) {
  source_ = &m;
  content_stamp_ = m.contentStamp();
  funcs_.clear();
  arg_names_.clear();
  globals_.clear();
  blocks_.clear();
  insts_.clear();
  operands_.clear();
  names_.clear();

  // Pass 1: stamp dense ids on every module-local value, in the exact
  // order restoreInto() recreates them: functions and their arguments,
  // globals, then per function all blocks followed by all instructions.
  const std::uint64_t gen = Value::nextStampGeneration();
  std::uint64_t next_id = 0;
  for (const auto& f : m.functions()) {
    f->stampFingerprintId(gen, next_id++);
    for (const auto& a : f->args()) a->stampFingerprintId(gen, next_id++);
  }
  for (const auto& g : m.globals()) g->stampFingerprintId(gen, next_id++);
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      bb->stampFingerprintId(gen, next_id++);
    }
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        inst->stampFingerprintId(gen, next_id++);
      }
    }
  }
  num_ids_ = next_id;

  // Pass 2: write the flat records.
  std::int32_t func_index = 0;
  std::unordered_map<const Function*, std::int32_t> func_indices;
  for (const auto& f : m.functions()) {
    func_indices[f.get()] = func_index++;
    FuncRec rec;
    rec.name = intern(f->name());
    rec.type = f->functionType();
    rec.linkage = f->linkage();
    rec.intrinsic = f->intrinsicId();
    rec.attrs = f->rawAttrs();
    rec.next_value = f->next_value_;
    rec.next_block = f->next_block_;
    rec.first_arg = static_cast<std::uint32_t>(arg_names_.size());
    rec.num_args = static_cast<std::uint32_t>(f->numArgs());
    for (const auto& a : f->args()) arg_names_.push_back(intern(a->name()));
    rec.first_block = static_cast<std::uint32_t>(blocks_.size());
    rec.num_blocks = static_cast<std::uint32_t>(f->numBlocks());
    for (const auto& bb : f->blocks()) {
      BlockRec brec;
      brec.name = intern(bb->name());
      brec.first_inst = static_cast<std::uint32_t>(insts_.size());
      brec.num_insts = static_cast<std::uint32_t>(bb->size());
      for (const auto& inst : bb->insts()) {
        InstRec irec;
        irec.attrs = inst->attrs();
        irec.name = intern(inst->name());
        irec.first_op = static_cast<std::uint32_t>(operands_.size());
        irec.num_ops = static_cast<std::uint32_t>(inst->numOperands());
        for (Value* op : inst->operands()) {
          operands_.push_back(encodeOperand(op, gen));
        }
        insts_.push_back(irec);
      }
      blocks_.push_back(brec);
    }
    funcs_.push_back(rec);
  }
  for (const auto& g : m.globals()) {
    GlobalRec rec;
    rec.name = intern(g->name());
    rec.value_type = g->valueType();
    rec.linkage = g->linkage();
    rec.is_const = g->isConst();
    rec.init = g->init();
    if (rec.init.kind == GlobalInit::Kind::FuncPtr) {
      auto it = func_indices.find(rec.init.function);
      POSETRL_CHECK(it != func_indices.end(),
                    "snapshot: global initializer targets foreign function");
      rec.init_func = it->second;
      rec.init.function = nullptr;
    }
    globals_.push_back(rec);
  }
}

namespace {

Value* resolveOperand(std::uint64_t entry, const std::vector<Value*>& table) {
  if ((entry & 1u) == 0) return reinterpret_cast<Value*>(entry);
  Value* v = table[entry >> 1];
  POSETRL_CHECK(v != nullptr, "snapshot: unresolved operand id");
  return v;
}

}  // namespace

ModuleSnapshot::RestoreResult ModuleSnapshot::restoreInto(Module& m) const {
  POSETRL_CHECK(source_ == &m,
                "ModuleSnapshot::restoreInto on a different module");
  ArenaScope arena_scope(m.arena());
  RestoreResult result;

  // 1. Teardown: drop every operand reference in every body so all user
  // lists empty out; then the old blocks/instructions can be destroyed in
  // any order, and surviving symbols carry no stale use edges.
  for (const auto& f : m.functions_) {
    for (const auto& bb : f->blocks_) {
      for (const auto& inst : bb->insts()) inst->dropAllOperands();
    }
  }
  for (const auto& f : m.functions_) f->blocks_.clear();

  // 2. Reconcile functions by name, in snapshot order. A function that
  // existed at capture time with the same signature is reused in place —
  // this is the symbol-identity gold standard that keeps pointer-keyed
  // caches meaningful across rollback. Functions the action created are
  // dropped; functions it erased or re-signatured are recreated.
  Module::FuncList old_funcs = std::move(m.functions_);
  m.functions_.clear();
  std::unordered_map<std::string_view, Module::FuncList::iterator> by_name;
  for (auto it = old_funcs.begin(); it != old_funcs.end(); ++it) {
    by_name.emplace(std::string_view((*it)->name()), it);
  }
  std::vector<Function*> func_ptrs;
  func_ptrs.reserve(funcs_.size());
  for (const FuncRec& rec : funcs_) {
    const std::string_view name = view(rec.name);
    Function* f = nullptr;
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      m.functions_.splice(m.functions_.end(), old_funcs, it->second);
      by_name.erase(it);
      f = m.functions_.back().get();
      if (f->functionType() != rec.type) {
        // Signature changed (deadargelim / attributor): rebuild the
        // argument objects from the recorded type. The Function object
        // itself keeps its identity; stale Argument* in analysis caches
        // are covered by the irGeneration bump below.
        f->setFunctionTypeUnchecked(rec.type);
        f->args_.clear();
        const auto& params = rec.type->funcParams();
        for (std::size_t i = 0; i < params.size(); ++i) {
          f->args_.push_back(std::make_unique<Argument>(
              params[i], "", f, static_cast<unsigned>(i)));
        }
      }
    } else {
      result.symbols_preserved = false;
      m.functions_.push_back(
          std::make_unique<Function>(rec.type, std::string(name), &m));
      f = m.functions_.back().get();
    }
    f->setLinkage(rec.linkage);
    f->setIntrinsicId(rec.intrinsic);
    f->setRawAttrs(rec.attrs);
    f->next_value_ = rec.next_value;
    f->next_block_ = rec.next_block;
    POSETRL_CHECK(f->numArgs() == rec.num_args,
                  "snapshot: argument count drifted from function type");
    for (std::size_t i = 0; i < rec.num_args; ++i) {
      f->arg(i)->setName(std::string(view(arg_names_[rec.first_arg + i])));
    }
    func_ptrs.push_back(f);
  }
  if (!old_funcs.empty()) result.symbols_preserved = false;

  // 3. Reconcile globals by name (same protocol).
  Module::GlobalList old_globals = std::move(m.globals_);
  m.globals_.clear();
  std::unordered_map<std::string_view, Module::GlobalList::iterator>
      globals_by_name;
  for (auto it = old_globals.begin(); it != old_globals.end(); ++it) {
    globals_by_name.emplace(std::string_view((*it)->name()), it);
  }
  std::vector<GlobalVariable*> global_ptrs;
  global_ptrs.reserve(globals_.size());
  for (const GlobalRec& rec : globals_) {
    const std::string_view name = view(rec.name);
    GlobalVariable* g = nullptr;
    auto it = globals_by_name.find(name);
    if (it != globals_by_name.end() &&
        (*it->second)->valueType() == rec.value_type) {
      m.globals_.splice(m.globals_.end(), old_globals, it->second);
      globals_by_name.erase(it);
      g = m.globals_.back().get();
    } else {
      if (it != globals_by_name.end()) {
        // Same name, different value type: the old object cannot be
        // re-typed in place; leave it in old_globals for destruction.
        globals_by_name.erase(it);
      }
      result.symbols_preserved = false;
      m.globals_.push_back(std::make_unique<GlobalVariable>(
          m.types_.ptrTo(rec.value_type), rec.value_type, std::string(name),
          GlobalInit::zero(), rec.linkage, rec.is_const));
      g = m.globals_.back().get();
    }
    GlobalInit init = rec.init;
    if (init.kind == GlobalInit::Kind::FuncPtr) {
      init.function = func_ptrs[static_cast<std::size_t>(rec.init_func)];
    }
    g->setInit(std::move(init));
    g->setLinkage(rec.linkage);
    g->setConst(rec.is_const);
    global_ptrs.push_back(g);
  }
  if (!old_globals.empty()) result.symbols_preserved = false;

  // 4. Rebuild the value table in capture order, recreating bodies.
  std::vector<Value*> table(num_ids_, nullptr);
  std::size_t id = 0;
  for (std::size_t i = 0; i < funcs_.size(); ++i) {
    table[id++] = func_ptrs[i];
    for (const auto& a : func_ptrs[i]->args()) table[id++] = a.get();
  }
  for (GlobalVariable* g : global_ptrs) table[id++] = g;

  Type* label_type = m.types_.voidTy();
  for (std::size_t fi = 0; fi < funcs_.size(); ++fi) {
    const FuncRec& frec = funcs_[fi];
    Function* f = func_ptrs[fi];
    for (std::uint32_t bi = 0; bi < frec.num_blocks; ++bi) {
      const BlockRec& brec = blocks_[frec.first_block + bi];
      f->blocks_.push_back(std::make_unique<BasicBlock>(
          label_type, std::string(view(brec.name)), f));
      table[id++] = f->blocks_.back().get();
    }
    // Create every instruction with unbound slots first (operands may be
    // forward references), owned by its block from the start so a throw in
    // the bind sweep leaks nothing; then bind each slot exactly once.
    auto block_it = f->blocks_.begin();
    for (std::uint32_t bi = 0; bi < frec.num_blocks; ++bi, ++block_it) {
      const BlockRec& brec = blocks_[frec.first_block + bi];
      for (std::uint32_t ii = 0; ii < brec.num_insts; ++ii) {
        const InstRec& irec = insts_[brec.first_inst + ii];
        table[id++] = (*block_it)->pushBack(Instruction::create(
            irec.attrs, std::string(view(irec.name)), irec.num_ops));
      }
    }
    block_it = f->blocks_.begin();
    for (std::uint32_t bi = 0; bi < frec.num_blocks; ++bi, ++block_it) {
      std::uint32_t ii = blocks_[frec.first_block + bi].first_inst;
      for (const auto& inst : (*block_it)->insts()) {
        const InstRec& irec = insts_[ii++];
        for (std::uint32_t j = 0; j < irec.num_ops; ++j) {
          inst->bindOperand(
              j, resolveOperand(operands_[irec.first_op + j], table));
        }
      }
    }
  }
  POSETRL_CHECK(id == num_ids_, "snapshot: id walk out of sync");

  // 5. Blocks and instructions are new objects: invalidate pointer-holding
  // caches via the generation stamp, and revert the content stamp (the
  // content is bit-for-bit the captured one again). Every body was rebuilt
  // in place, so every function's body generation moves too.
  for (const auto& f : m.functions_) f->bumpBodyGeneration();
  m.bumpIrGeneration();
  m.restoreContentStamp(content_stamp_);
  return result;
}

}  // namespace posetrl
