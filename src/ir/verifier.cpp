#include "ir/verifier.h"

#include <sstream>

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

}  // namespace

void checkInstructionTypes(const Function* f, const Instruction& inst,
                           VerifyResult& out) {
  Checker ck(out);
  checkInstructionTypeRules(ck, f, inst);
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

}  // namespace posetrl
