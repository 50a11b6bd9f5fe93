#include "lint/lint.h"

#include <functional>
#include <set>
#include <vector>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/printer.h"

namespace posetrl {

namespace {

/// Shared helper: build a diagnostic located at \p inst.
LintDiagnostic at(std::string_view checker, LintSeverity sev,
                  const Instruction* inst, std::string message) {
  LintDiagnostic d;
  d.checker = std::string(checker);
  d.severity = sev;
  if (inst != nullptr && inst->parent() != nullptr) {
    d.block = inst->parent()->name();
    if (inst->parent()->parent() != nullptr) {
      d.function = inst->parent()->parent()->name();
    }
    d.instruction = printInstruction(*inst);
  }
  d.message = std::move(message);
  return d;
}

/// Follows a pointer value through GEPs to its base object.
const Value* pointerBase(const Value* p) {
  while (const auto* gep = dynCast<GepInst>(p)) p = gep->base();
  return p;
}

// --- undef-use ------------------------------------------------------------
// A transform that folds away a definition but forgets a user typically
// patches the hole with undef; executing such IR is nondeterministic, so any
// non-phi use is suspicious. Phi inputs from never-taken edges are a common
// and benign intermediate state, reported as notes.
class UndefUseChecker : public LintChecker {
 public:
  std::string_view name() const override { return "undef-use"; }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          for (std::size_t i = 0; i < inst->numOperands(); ++i) {
            if (!isa<UndefValue>(inst->operand(i))) continue;
            const bool is_phi = inst->opcode() == Opcode::Phi;
            report.add(at(name(),
                          is_phi ? LintSeverity::Note : LintSeverity::Warning,
                          inst.get(),
                          "operand " + std::to_string(i) + " is undef"));
          }
        }
      }
    }
  }
};

// --- unreachable-block ----------------------------------------------------
// Blocks no path from the entry can reach are dead weight the size model
// still pays for; a CFG transform that rewired edges without cleaning up
// leaves them behind.

/// Blocks reachable from \p f's entry, through the const view that
/// analysis/cfg.h does not provide.
std::set<const BasicBlock*> reachableBlockSet(const Function& f) {
  std::set<const BasicBlock*> seen{f.entry()};
  std::vector<const BasicBlock*> stack{f.entry()};
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

class UnreachableBlockChecker : public LintChecker {
 public:
  std::string_view name() const override { return "unreachable-block"; }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      if (f->isDeclaration()) continue;
      const auto reachable = reachableBlockSet(*f);
      for (const auto& bb : f->blocks()) {
        if (reachable.count(bb.get())) continue;
        LintDiagnostic d;
        d.checker = std::string(name());
        d.severity = LintSeverity::Warning;
        d.function = f->name();
        d.block = bb->name();
        d.message = "block is unreachable from the entry";
        report.add(std::move(d));
      }
    }
  }
};

// --- dead-internal-function -----------------------------------------------
// Internal functions with no callers (and no address taken via a global
// initializer) should have been deleted by globaldce; survivors inflate the
// size reward for free.
class DeadInternalFunctionChecker : public LintChecker {
 public:
  std::string_view name() const override { return "dead-internal-function"; }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      if (!f->isInternal() || f->isIntrinsic()) continue;
      if (f->name() == "main") continue;
      if (f->hasUses()) continue;
      bool in_global_init = false;
      for (const auto& g : m.globals()) {
        if (g->init().kind == GlobalInit::Kind::FuncPtr &&
            g->init().function == f.get()) {
          in_global_init = true;
          break;
        }
      }
      if (in_global_init) continue;
      LintDiagnostic d;
      d.checker = std::string(name());
      d.severity = LintSeverity::Warning;
      d.function = f->name();
      d.message = f->isDeclaration()
                      ? "unused internal declaration"
                      : "internal function has no uses and is not the entry";
      report.add(std::move(d));
    }
  }
};

// --- store-to-constant-global ---------------------------------------------
// Writing through a pointer that provably aliases a `const` global is
// undefined behaviour at the LLVM level; a pass that forgot a constness
// check (globalopt marking too eagerly, DSE resurrecting a store) produces
// exactly this shape.
class StoreToConstGlobalChecker : public LintChecker {
 public:
  std::string_view name() const override { return "store-to-constant-global"; }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          const auto* store = dynCast<StoreInst>(inst.get());
          if (store == nullptr) continue;
          const auto* g = dynCast<GlobalVariable>(pointerBase(store->pointer()));
          if (g == nullptr || !g->isConst()) continue;
          report.add(at(name(), LintSeverity::Error, inst.get(),
                        "store into constant global @" + g->name()));
        }
      }
    }
  }
};

// --- call-signature-mismatch ----------------------------------------------
// Two blind spots of the structural verifier: (1) a function whose type was
// rewritten in place (setFunctionTypeUnchecked, used by deadargelim /
// attributor) can disagree with its own argument list; (2) an indirect call
// through a constant function-pointer global has a statically known target
// whose signature the verifier never cross-checks.
class CallSignatureChecker : public LintChecker {
 public:
  std::string_view name() const override { return "call-signature-mismatch"; }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      checkOwnSignature(*f, report);
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          const auto* call = dynCast<CallInst>(inst.get());
          if (call == nullptr) continue;
          const Function* target = resolveTarget(*call);
          if (target != nullptr) checkCallAgainst(*call, *target, report);
        }
      }
    }
  }

 private:
  void checkOwnSignature(const Function& f, LintReport& report) const {
    const auto& params = f.functionType()->funcParams();
    if (params.size() != f.numArgs()) {
      LintDiagnostic d;
      d.checker = std::string(name());
      d.severity = LintSeverity::Error;
      d.function = f.name();
      d.message = "function type has " + std::to_string(params.size()) +
                  " parameters but " + std::to_string(f.numArgs()) +
                  " arguments";
      report.add(std::move(d));
      return;
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (f.arg(i)->type() == params[i]) continue;
      LintDiagnostic d;
      d.checker = std::string(name());
      d.severity = LintSeverity::Error;
      d.function = f.name();
      d.message = "argument " + std::to_string(i) + " has type " +
                  f.arg(i)->type()->str() + " but the function type says " +
                  params[i]->str();
      report.add(std::move(d));
    }
  }

  /// The statically known callee: a direct call's function, or the
  /// initializer of a constant function-pointer global loaded right before
  /// an indirect call.
  static const Function* resolveTarget(const CallInst& call) {
    if (const Function* direct = call.calledFunction()) return direct;
    const auto* load = dynCast<LoadInst>(call.callee());
    if (load == nullptr) return nullptr;
    const auto* g = dynCast<GlobalVariable>(pointerBase(load->pointer()));
    if (g == nullptr || !g->isConst()) return nullptr;
    if (g->init().kind != GlobalInit::Kind::FuncPtr) return nullptr;
    return g->init().function;
  }

  void checkCallAgainst(const CallInst& call, const Function& target,
                        LintReport& report) const {
    const Type* fty = target.functionType();
    const auto& params = fty->funcParams();
    if (call.type() != fty->funcReturn()) {
      report.add(at(name(), LintSeverity::Error, &call,
                    "call result type " + call.type()->str() +
                        " does not match @" + target.name() + " returning " +
                        fty->funcReturn()->str()));
    }
    if (call.numArgs() != params.size()) {
      report.add(at(name(), LintSeverity::Error, &call,
                    "call passes " + std::to_string(call.numArgs()) +
                        " arguments but @" + target.name() + " takes " +
                        std::to_string(params.size())));
      return;
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (call.arg(i)->type() == params[i]) continue;
      report.add(at(name(), LintSeverity::Error, &call,
                    "argument " + std::to_string(i) + " has type " +
                        call.arg(i)->type()->str() + " but @" +
                        target.name() + " expects " + params[i]->str()));
    }
  }
};

// --- gep-out-of-bounds-constant-index -------------------------------------
// GEPs whose indices are all compile-time constants can be bounds-checked
// statically against the indexed type; an index past an array's length (or a
// nonzero first index off a single stack/global object) will trap — or
// worse, silently alias — at run time.
class GepBoundsChecker : public LintChecker {
 public:
  std::string_view name() const override {
    return "gep-out-of-bounds-constant-index";
  }

  void check(const Module& m, LintReport& report) const override {
    for (const auto& f : m.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          const auto* gep = dynCast<GepInst>(inst.get());
          if (gep != nullptr) checkGep(*gep, report);
        }
      }
    }
  }

 private:
  void checkGep(const GepInst& gep, LintReport& report) const {
    // First index: offsets whole source elements. Any nonzero constant is
    // out of bounds when the base is a single allocated object.
    if (gep.numIndices() == 0) return;
    const Value* base = pointerBase(gep.base());
    if (const auto* first = dynCast<ConstantInt>(gep.index(0))) {
      const bool single_object =
          isa<AllocaInst>(base) || isa<GlobalVariable>(base);
      if (single_object && first->value() != 0) {
        report.add(at(name(), LintSeverity::Error, &gep,
                      "first index " + std::to_string(first->value()) +
                          " steps off a single allocated object"));
      }
    }
    // Later indices: step into the source element type, which carries exact
    // bounds for arrays and structs.
    const Type* cur = gep.sourceElement();
    for (std::size_t i = 1; i < gep.numIndices(); ++i) {
      const auto* idx = dynCast<ConstantInt>(gep.index(i));
      if (cur->isArray()) {
        if (idx != nullptr &&
            (idx->value() < 0 ||
             static_cast<std::uint64_t>(idx->value()) >= cur->arrayCount())) {
          report.add(at(name(), LintSeverity::Error, &gep,
                        "index " + std::to_string(idx->value()) +
                            " out of bounds for " + cur->str()));
        }
        cur = cur->arrayElement();
      } else if (cur->isStruct()) {
        if (idx == nullptr) return;  // Dynamic struct index: not checkable.
        if (idx->value() < 0 ||
            static_cast<std::size_t>(idx->value()) >=
                cur->structFields().size()) {
          report.add(at(name(), LintSeverity::Error, &gep,
                        "field index " + std::to_string(idx->value()) +
                            " out of bounds for " + cur->str()));
          return;
        }
        cur = cur->structFields()[static_cast<std::size_t>(idx->value())];
      } else {
        return;  // Scalar: trailing indices are the verifier's problem.
      }
    }
  }
};

using CheckerFactory = std::function<std::unique_ptr<LintChecker>()>;

const std::vector<std::pair<std::string, CheckerFactory>>& checkerTable() {
  static const std::vector<std::pair<std::string, CheckerFactory>> table = {
      {"undef-use", [] { return std::make_unique<UndefUseChecker>(); }},
      {"unreachable-block",
       [] { return std::make_unique<UnreachableBlockChecker>(); }},
      {"dead-internal-function",
       [] { return std::make_unique<DeadInternalFunctionChecker>(); }},
      {"store-to-constant-global",
       [] { return std::make_unique<StoreToConstGlobalChecker>(); }},
      {"call-signature-mismatch",
       [] { return std::make_unique<CallSignatureChecker>(); }},
      {"gep-out-of-bounds-constant-index",
       [] { return std::make_unique<GepBoundsChecker>(); }},
  };
  return table;
}

}  // namespace

std::vector<std::unique_ptr<LintChecker>> createAllLintCheckers() {
  std::vector<std::unique_ptr<LintChecker>> out;
  for (const auto& [name, factory] : checkerTable()) out.push_back(factory());
  return out;
}

std::vector<std::string> lintCheckerNames() {
  std::vector<std::string> out;
  for (const auto& [name, factory] : checkerTable()) out.push_back(name);
  return out;
}

std::unique_ptr<LintChecker> createLintChecker(std::string_view name) {
  for (const auto& [id, factory] : checkerTable()) {
    if (id == name) return factory();
  }
  return nullptr;
}

LintReport runLint(const Module& m) {
  LintReport report;
  for (const auto& checker : createAllLintCheckers()) {
    checker->check(m, report);
  }
  return report;
}

}  // namespace posetrl
