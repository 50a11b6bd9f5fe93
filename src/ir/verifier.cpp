#include "ir/verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/printer.h"

namespace posetrl {

std::string VerifyResult::message() const {
  std::string out;
  for (const auto& e : errors) {
    out += e;
    out += "\n";
  }
  return out;
}

namespace {

/// Collects verification errors with contextual prefixes.
class Checker {
 public:
  explicit Checker(VerifyResult& result) : result_(result) {}

  void error(const Function* f, const Instruction* inst,
             const std::string& msg) {
    std::ostringstream os;
    if (f != nullptr) os << "in @" << f->name() << ": ";
    os << msg;
    if (inst != nullptr) os << "  [" << printInstruction(*inst) << "]";
    result_.errors.push_back(os.str());
  }

 private:
  VerifyResult& result_;
};

/// Simple iterative dominator computation over reachable blocks. Returns
/// dom[b] = set of blocks dominating b (including b itself).
std::map<const BasicBlock*, std::set<const BasicBlock*>> computeDominators(
    const Function& f, const std::set<const BasicBlock*>& reachable) {
  std::map<const BasicBlock*, std::set<const BasicBlock*>> dom;
  std::vector<const BasicBlock*> blocks(reachable.begin(), reachable.end());
  const BasicBlock* entry = f.entry();
  for (const BasicBlock* b : blocks) {
    if (b == entry) {
      dom[b] = {b};
    } else {
      dom[b] = std::set<const BasicBlock*>(reachable.begin(),
                                           reachable.end());
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BasicBlock* b : blocks) {
      if (b == entry) continue;
      std::set<const BasicBlock*> merged;
      bool first = true;
      for (const BasicBlock* p : b->predecessors()) {
        if (!reachable.count(p)) continue;
        if (first) {
          merged = dom[p];
          first = false;
        } else {
          std::set<const BasicBlock*> tmp;
          std::set_intersection(merged.begin(), merged.end(), dom[p].begin(),
                                dom[p].end(),
                                std::inserter(tmp, tmp.begin()));
          merged = std::move(tmp);
        }
      }
      merged.insert(b);
      if (merged != dom[b]) {
        dom[b] = std::move(merged);
        changed = true;
      }
    }
  }
  return dom;
}

bool isValidCast(Opcode op, Type* from, Type* to) {
  switch (op) {
    case Opcode::ZExt:
    case Opcode::SExt:
      return from->isInteger() && to->isInteger() &&
             from->intBits() < to->intBits();
    case Opcode::Trunc:
      return from->isInteger() && to->isInteger() &&
             from->intBits() > to->intBits();
    case Opcode::SIToFP:
      return from->isInteger() && to->isFloat();
    case Opcode::FPToSI:
      return from->isFloat() && to->isInteger();
    default:
      return false;
  }
}

void checkInstructionTypeRules(Checker& ck, const Function* f,
                               const Instruction& inst) {
  const Opcode op = inst.opcode();
  if (inst.isBinaryOp()) {
    if (inst.operand(0)->type() != inst.type() ||
        inst.operand(1)->type() != inst.type()) {
      ck.error(f, &inst, "binary operand/result type mismatch");
    }
    if (inst.isIntBinaryOp() && !inst.type()->isInteger()) {
      ck.error(f, &inst, "integer binary op on non-integer type");
    }
    if (inst.isFloatBinaryOp() && !inst.type()->isFloat()) {
      ck.error(f, &inst, "float binary op on non-float type");
    }
    return;
  }
  switch (op) {
    case Opcode::Load: {
      const auto& load = static_cast<const LoadInst&>(inst);
      if (!load.pointer()->type()->isPointer()) {
        ck.error(f, &inst, "load pointer operand is not a pointer");
      } else if (load.pointer()->type()->pointee() != load.type()) {
        ck.error(f, &inst, "load result type mismatch");
      }
      break;
    }
    case Opcode::Store: {
      const auto& store = static_cast<const StoreInst&>(inst);
      if (!store.pointer()->type()->isPointer()) {
        ck.error(f, &inst, "store pointer operand is not a pointer");
      } else if (store.pointer()->type()->pointee() !=
                 store.value()->type()) {
        ck.error(f, &inst, "store value type mismatch");
      }
      break;
    }
    case Opcode::Gep: {
      const auto& gep = static_cast<const GepInst&>(inst);
      if (!gep.base()->type()->isPointer()) {
        ck.error(f, &inst, "gep base is not a pointer");
        break;
      }
      if (gep.base()->type()->pointee() != gep.sourceElement()) {
        ck.error(f, &inst, "gep source element mismatch with base pointee");
      }
      for (std::size_t i = 0; i < gep.numIndices(); ++i) {
        if (!gep.index(i)->type()->isInteger()) {
          ck.error(f, &inst, "gep index is not an integer");
        }
      }
      break;
    }
    case Opcode::ICmp: {
      if (inst.operand(0)->type() != inst.operand(1)->type()) {
        ck.error(f, &inst, "icmp operand type mismatch");
      }
      Type* t = inst.operand(0)->type();
      if (!t->isInteger() && !t->isPointer()) {
        ck.error(f, &inst, "icmp on non-integer/pointer type");
      }
      if (!inst.type()->isInteger() || inst.type()->intBits() != 1) {
        ck.error(f, &inst, "icmp result must be i1");
      }
      break;
    }
    case Opcode::FCmp: {
      if (inst.operand(0)->type() != inst.operand(1)->type() ||
          !inst.operand(0)->type()->isFloat()) {
        ck.error(f, &inst, "fcmp operand types invalid");
      }
      break;
    }
    case Opcode::Select: {
      const auto& sel = static_cast<const SelectInst&>(inst);
      if (!sel.condition()->type()->isInteger() ||
          sel.condition()->type()->intBits() != 1) {
        ck.error(f, &inst, "select condition must be i1");
      }
      if (sel.trueValue()->type() != inst.type() ||
          sel.falseValue()->type() != inst.type()) {
        ck.error(f, &inst, "select arm type mismatch");
      }
      break;
    }
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc:
    case Opcode::SIToFP:
    case Opcode::FPToSI:
      if (!isValidCast(op, inst.operand(0)->type(), inst.type())) {
        ck.error(f, &inst, "invalid cast");
      }
      break;
    case Opcode::Call: {
      const auto& call = static_cast<const CallInst&>(inst);
      Type* callee_ty = call.callee()->type();
      Type* fty = nullptr;
      if (callee_ty->isFunction()) {
        fty = callee_ty;
      } else if (callee_ty->isPointer() &&
                 callee_ty->pointee()->isFunction()) {
        fty = callee_ty->pointee();
      } else {
        ck.error(f, &inst, "call callee is not a function");
        break;
      }
      if (fty->funcReturn() != inst.type()) {
        ck.error(f, &inst, "call result type mismatch");
      }
      const auto& params = fty->funcParams();
      if (params.size() != call.numArgs()) {
        ck.error(f, &inst, "call argument count mismatch");
        break;
      }
      for (std::size_t i = 0; i < params.size(); ++i) {
        if (call.arg(i)->type() != params[i]) {
          ck.error(f, &inst, "call argument type mismatch");
        }
      }
      break;
    }
    case Opcode::Ret: {
      const auto& ret = static_cast<const RetInst&>(inst);
      Type* rt = f->returnType();
      if (rt->isVoid()) {
        if (ret.hasValue()) ck.error(f, &inst, "ret value in void function");
      } else if (!ret.hasValue()) {
        ck.error(f, &inst, "ret void in non-void function");
      } else if (ret.value()->type() != rt) {
        ck.error(f, &inst, "ret value type mismatch");
      }
      break;
    }
    case Opcode::CondBr: {
      const auto& cbr = static_cast<const CondBrInst&>(inst);
      Type* ct = cbr.condition()->type();
      if (!ct->isInteger() || ct->intBits() != 1) {
        ck.error(f, &inst, "condbr condition must be i1");
      }
      break;
    }
    case Opcode::Switch: {
      const auto& sw = static_cast<const SwitchInst&>(inst);
      if (!sw.condition()->type()->isInteger()) {
        ck.error(f, &inst, "switch condition must be integer");
      }
      for (std::size_t i = 0; i < sw.numCases(); ++i) {
        if (sw.caseValue(i)->type() != sw.condition()->type()) {
          ck.error(f, &inst, "switch case type mismatch");
        }
      }
      break;
    }
    default:
      break;
  }
}

void verifyFunctionBody(Checker& ck, const Function& f) {
  // Entry block must have no predecessors.
  if (!f.entry()->predecessors().empty()) {
    ck.error(&f, nullptr, "entry block has predecessors");
  }

  std::set<const BasicBlock*> block_set;
  for (const auto& bb : f.blocks()) block_set.insert(bb.get());

  for (const auto& bb : f.blocks()) {
    if (bb->parent() != &f) {
      ck.error(&f, nullptr, "block parent pointer wrong: " + bb->name());
    }
    if (bb->empty()) {
      ck.error(&f, nullptr, "empty basic block: " + bb->name());
      continue;
    }
    // Exactly one terminator, at the end; phis only at the head.
    bool seen_non_phi = false;
    std::size_t idx = 0;
    const std::size_t last = bb->size() - 1;
    for (const auto& inst : bb->insts()) {
      if (inst->parent() != bb.get()) {
        ck.error(&f, inst.get(), "instruction parent pointer wrong");
      }
      if (inst->isTerminator() != (idx == last)) {
        ck.error(&f, inst.get(),
                 idx == last ? "block does not end with a terminator"
                             : "terminator in the middle of a block");
      }
      if (inst->opcode() == Opcode::Phi) {
        if (seen_non_phi) ck.error(&f, inst.get(), "phi after non-phi");
      } else {
        seen_non_phi = true;
      }
      if (!inst->type()->isVoid() && inst->name().empty()) {
        ck.error(&f, inst.get(), "unnamed instruction result");
      }
      // Successor targets must live in this function.
      for (std::size_t s = 0; s < inst->numSuccessors(); ++s) {
        if (!block_set.count(inst->successor(s))) {
          ck.error(&f, inst.get(), "branch to block of another function");
        }
      }
      checkInstructionTypeRules(ck, &f, *inst);
      ++idx;
    }
  }

  // Phi incoming edges must exactly match predecessor sets.
  for (const auto& bb : f.blocks()) {
    const auto preds = bb->predecessors();
    for (PhiInst* phi : bb->phis()) {
      if (phi->numIncoming() != preds.size()) {
        ck.error(&f, phi, "phi incoming count != predecessor count of " +
                              bb->name());
        continue;
      }
      std::set<const BasicBlock*> incoming;
      for (std::size_t i = 0; i < phi->numIncoming(); ++i) {
        incoming.insert(phi->incomingBlock(i));
        if (phi->incomingValue(i)->type() != phi->type()) {
          ck.error(&f, phi, "phi incoming value type mismatch");
        }
      }
      for (const BasicBlock* p : preds) {
        if (!incoming.count(p)) {
          ck.error(&f, phi, "phi missing incoming edge from " + p->name());
        }
      }
    }
  }

  // SSA dominance over reachable blocks.
  const auto reachable = reachableBlockSet(f);
  const auto dom = computeDominators(f, reachable);
  const auto dominates = [&](const BasicBlock* a, const BasicBlock* b) {
    auto it = dom.find(b);
    return it != dom.end() && it->second.count(a) > 0;
  };
  // Per-block instruction order index for same-block checks.
  std::map<const Instruction*, std::size_t> order;
  for (const auto& bb : f.blocks()) {
    std::size_t i = 0;
    for (const auto& inst : bb->insts()) order[inst.get()] = i++;
  }
  for (const auto& bb : f.blocks()) {
    const bool live = reachable.count(bb.get()) > 0;
    for (const auto& inst : bb->insts()) {
      for (std::size_t oi = 0; oi < inst->numOperands(); ++oi) {
        const auto* def = dynCast<Instruction>(inst->operand(oi));
        if (def == nullptr) continue;
        // Checked in unreachable blocks too, as the fast verifier does.
        if (def->parent() == nullptr ||
            def->parent()->parent() != &f) {
          ck.error(&f, inst.get(), "operand from another function");
          continue;
        }
        if (!live) continue;
        if (inst->opcode() == Opcode::Phi) {
          if (oi % 2 != 0) continue;  // Block operands.
          const auto* phi = static_cast<const PhiInst*>(inst.get());
          const BasicBlock* pred = phi->incomingBlock(oi / 2);
          if (!reachable.count(pred)) continue;
          if (!dominates(def->parent(), pred)) {
            ck.error(&f, inst.get(),
                     "phi incoming value does not dominate its edge");
          }
        } else if (def->parent() == bb.get()) {
          if (order[def] >= order[inst.get()]) {
            ck.error(&f, inst.get(), "use before def in block");
          }
        } else if (!dominates(def->parent(), bb.get())) {
          ck.error(&f, inst.get(), "operand does not dominate use");
        }
      }
    }
  }
}

/// Checks that operand/user bookkeeping is globally consistent.
void verifyUseDefIntegrity(Checker& ck, const Module& m) {
  // value -> number of operand slots referencing it.
  std::map<const Value*, std::size_t> operand_counts;
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        for (const Value* op : inst->operands()) ++operand_counts[op];
      }
    }
  }
  const auto check_value = [&](const Value* v, const std::string& what) {
    const std::size_t expected = operand_counts.count(v)
                                     ? operand_counts.at(v)
                                     : 0;
    if (v->numUses() != expected) {
      ck.error(nullptr, nullptr,
               "use-list size mismatch for " + what + " (" +
                   std::to_string(v->numUses()) + " recorded vs " +
                   std::to_string(expected) + " actual)");
    }
  };
  for (const auto& f : m.functions()) {
    check_value(f.get(), "@" + f->name());
    for (const auto& a : f->args()) check_value(a.get(), "%" + a->name());
    for (const auto& bb : f->blocks()) {
      check_value(bb.get(), "label " + bb->name());
      for (const auto& inst : bb->insts()) {
        check_value(inst.get(), "%" + inst->name());
      }
    }
  }
  for (const auto& g : m.globals()) check_value(g.get(), "@" + g->name());
}

}  // namespace

void checkInstructionTypes(const Function* f, const Instruction& inst,
                           VerifyResult& out) {
  Checker ck(out);
  checkInstructionTypeRules(ck, f, inst);
}

std::set<const BasicBlock*> reachableBlockSet(const Function& f) {
  std::set<const BasicBlock*> seen;
  if (f.isDeclaration()) return seen;
  std::vector<const BasicBlock*> stack{f.entry()};
  seen.insert(f.entry());
  while (!stack.empty()) {
    const BasicBlock* bb = stack.back();
    stack.pop_back();
    const Instruction* term = bb->terminator();
    if (term == nullptr) continue;
    for (std::size_t i = 0; i < term->numSuccessors(); ++i) {
      const BasicBlock* s = term->successor(i);
      if (seen.insert(s).second) stack.push_back(s);
    }
  }
  return seen;
}

VerifyResult verifyFunction(const Function& function) {
  VerifyResult result;
  Checker ck(result);
  if (!function.isDeclaration()) verifyFunctionBody(ck, function);
  return result;
}

void checkGlobalInits(const Module& module, VerifyResult& out) {
  Checker ck(out);
  for (const auto& g : module.globals()) {
    const GlobalInit& init = g->init();
    Type* vt = g->valueType();
    switch (init.kind) {
      case GlobalInit::Kind::Int:
        if (!vt->isInteger()) {
          ck.error(nullptr, nullptr, "int init on non-integer global @" +
                                         g->name());
        }
        break;
      case GlobalInit::Kind::Float:
        if (!vt->isFloat()) {
          ck.error(nullptr, nullptr,
                   "float init on non-float global @" + g->name());
        }
        break;
      case GlobalInit::Kind::IntArray:
        if (!vt->isArray() || !vt->arrayElement()->isInteger()) {
          ck.error(nullptr, nullptr,
                   "array init on non-int-array global @" + g->name());
        } else if (init.elements.size() > vt->arrayCount()) {
          ck.error(nullptr, nullptr,
                   "array init longer than global @" + g->name());
        }
        break;
      case GlobalInit::Kind::FuncPtr:
        if (!vt->isPointer() || !vt->pointee()->isFunction()) {
          ck.error(nullptr, nullptr,
                   "funcptr init on non-function-pointer global @" +
                       g->name());
        } else if (init.function == nullptr ||
                   init.function->functionType() != vt->pointee()) {
          ck.error(nullptr, nullptr,
                   "funcptr init type mismatch on @" + g->name());
        }
        break;
      case GlobalInit::Kind::Zero:
        break;
    }
  }
}

VerifyResult verifyModule(const Module& module) {
  VerifyResult result;
  Checker ck(result);
  std::set<std::string> names;
  for (const auto& f : module.functions()) {
    if (!names.insert(f->name()).second) {
      ck.error(nullptr, nullptr, "duplicate function name @" + f->name());
    }
    if (!f->isDeclaration()) verifyFunctionBody(ck, *f);
  }
  checkGlobalInits(module, result);
  verifyUseDefIntegrity(ck, module);
  return result;
}

}  // namespace posetrl
