#include "faults/injection.h"

#include <memory>
#include <string>

#include "faults/fault.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "ir/type.h"
#include "passes/pass.h"
#include "support/error.h"
#include "support/fuel.h"

namespace posetrl {

namespace {

class ThrowPass : public Pass {
 public:
  std::string_view name() const override { return "fault-throw"; }
  bool run(Module&) override {
    throw PassFaultError("injected fault: fault-throw always throws");
  }
};

class CheckFailPass : public Pass {
 public:
  std::string_view name() const override { return "fault-check"; }
  bool run(Module&) override {
    POSETRL_CHECK(false, "injected fault: fault-check trips an invariant");
    return false;
  }
};

/// Roughly 32x instruction growth per application: for every instruction
/// already in a block, append 31 redundant i64 adds before the terminator.
class BloatPass : public Pass {
 public:
  std::string_view name() const override { return "fault-bloat"; }
  bool run(Module& module) override {
    bool changed = false;
    for (const auto& f : module.functions()) {
      if (f->isDeclaration()) continue;
      for (const auto& bb : f->blocks()) {
        Instruction* term = bb->terminator();
        if (term == nullptr) continue;
        const std::size_t existing = bb->insts().size();
        for (std::size_t i = 0; i + 1 < existing * 32; ++i) {
          FuelScope::consume();
          bb->insertBefore(
              term, std::make_unique<BinaryInst>(
                        Opcode::Add, module.types().i64(),
                        module.i64Const(0), module.i64Const(1),
                        "bloat." + std::to_string(next_name_++)));
          changed = true;
        }
      }
    }
    return changed;
  }

 private:
  std::size_t next_name_ = 0;
};

class HangPass : public Pass {
 public:
  std::string_view name() const override { return "fault-hang"; }
  bool run(Module&) override {
    // Without an armed fuel budget this loop would genuinely never return;
    // refuse instead of wedging the caller.
    if (!FuelScope::active()) {
      throw PassFaultError(
          "fault-hang run without a fuel budget; it would spin forever");
    }
    for (;;) FuelScope::consume();
  }
};

/// Verifier-clean miscompile: rewrites the constant operand of the first
/// add it finds, changing observable behaviour without breaking the IR.
class MiscompilePass : public Pass {
 public:
  std::string_view name() const override { return "fault-miscompile"; }
  // Deliberately false: the pass rewrites a constant, so this claim lets
  // the contract checker attribute the miscompile statically — no
  // interpreter run needed.
  PreservedAnalyses preserved() const override {
    return PreservedAnalyses::all();
  }
  bool run(Module& module) override {
    for (const auto& f : module.functions()) {
      for (const auto& bb : f->blocks()) {
        for (const auto& inst : bb->insts()) {
          if (inst->opcode() != Opcode::Add) continue;
          const auto* c = dynCast<ConstantInt>(inst->operand(1));
          if (c == nullptr) continue;
          inst->setOperand(1, module.i64Const(c->value() + 41));
          return true;
        }
      }
    }
    return false;
  }
};

}  // namespace

void registerFaultInjectionPasses() {
  registerPass("fault-throw", [] { return std::make_unique<ThrowPass>(); });
  registerPass("fault-check",
               [] { return std::make_unique<CheckFailPass>(); });
  registerPass("fault-bloat", [] { return std::make_unique<BloatPass>(); });
  registerPass("fault-hang", [] { return std::make_unique<HangPass>(); });
  registerPass("fault-miscompile",
               [] { return std::make_unique<MiscompilePass>(); });
}

}  // namespace posetrl
