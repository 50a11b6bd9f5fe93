#include "passes/pass.h"

#include <functional>
#include <map>

#include "ir/function.h"
#include "ir/module.h"
#include "lint/instrumentation.h"
#include "passes/all_passes.h"
#include "support/error.h"
#include "support/fuel.h"
#include "support/string_utils.h"

namespace posetrl {

bool FunctionPass::run(Module& module) {
  bool changed = false;
  for (auto it = module.functionsBegin(); it != module.functionsEnd(); ++it) {
    Function& f = **it;
    if (f.isDeclaration()) continue;
    // Cooperative budget hook: a no-op outside the fault sandbox, lets the
    // sandbox interrupt runaway pipelines between functions.
    FuelScope::consume();
    changed |= runOnFunction(f);
  }
  return changed;
}

namespace {

using Factory = std::function<std::unique_ptr<Pass>()>;

std::map<std::string, Factory, std::less<>>& factoryTable() {
  static std::map<std::string, Factory, std::less<>> table = {
      {"simplifycfg", createSimplifyCfgPass},
      {"instsimplify", createInstSimplifyPass},
      {"instcombine", createInstCombinePass},
      {"reassociate", createReassociatePass},
      {"speculative-execution", createSpeculativeExecutionPass},
      {"jump-threading", createJumpThreadingPass},
      {"correlated-propagation", createCorrelatedPropagationPass},
      {"tailcallelim", createTailCallElimPass},
      {"float2int", createFloat2IntPass},
      {"div-rem-pairs", createDivRemPairsPass},
      {"lower-expect", createLowerExpectPass},
      {"lower-constant-intrinsics", createLowerConstantIntrinsicsPass},
      {"alignment-from-assumptions", createAlignmentFromAssumptionsPass},
      {"mem2reg", createMem2RegPass},
      {"sroa", createSROAPass},
      {"early-cse", createEarlyCSEPass},
      {"early-cse-memssa", createEarlyCSEMemSSAPass},
      {"gvn", createGVNPass},
      {"dse", createDSEPass},
      {"memcpyopt", createMemCpyOptPass},
      {"mldst-motion", createMLSMPass},
      {"dce", createDCEPass},
      {"adce", createADCEPass},
      {"bdce", createBDCEPass},
      {"sccp", createSCCPPass},
      {"ipsccp", createIPSCCPPass},
      {"loop-simplify", createLoopSimplifyPass},
      {"lcssa", createLCSSAPass},
      {"licm", createLICMPass},
      {"loop-rotate", createLoopRotatePass},
      {"loop-unswitch", createLoopUnswitchPass},
      {"loop-deletion", createLoopDeletionPass},
      {"loop-unroll", createLoopUnrollPass},
      {"loop-unroll-o3", createLoopUnrollO3Pass},
      {"loop-unswitch-o3", createLoopUnswitchO3Pass},
      {"inline-o3", createInlinerO3Pass},
      {"indvars", createIndVarSimplifyPass},
      {"loop-idiom", createLoopIdiomPass},
      {"loop-distribute", createLoopDistributePass},
      {"loop-vectorize", createLoopVectorizePass},
      {"loop-load-elim", createLoopLoadElimPass},
      {"loop-sink", createLoopSinkPass},
      {"inline", createInlinerPass},
      {"prune-eh", createPruneEHPass},
      {"functionattrs", createFunctionAttrsPass},
      {"rpo-functionattrs", createRPOFunctionAttrsPass},
      {"attributor", createAttributorPass},
      {"inferattrs", createInferAttrsPass},
      {"forceattrs", createForceAttrsPass},
      {"called-value-propagation", createCalledValuePropagationPass},
      {"globalopt", createGlobalOptPass},
      {"globaldce", createGlobalDCEPass},
      {"deadargelim", createDeadArgElimPass},
      {"strip-dead-prototypes", createStripDeadPrototypesPass},
      {"constmerge", createConstMergePass},
      {"elim-avail-extern", createElimAvailExternPass},
      {"barrier", createBarrierPass},
      {"ee-instrument", createEEInstrumentPass},
  };
  return table;
}

/// Alternate spellings seen in the paper's tables.
std::string canonicalName(std::string_view name) {
  while (!name.empty() && name.front() == '-') name.remove_prefix(1);
  std::string n(name);
  if (n == "alignmentfromassumptions") return "alignment-from-assumptions";
  if (n == "early-cse-memssa" || n == "early-cse-mem-ssa") return n == "early-cse-mem-ssa" ? "early-cse-memssa" : n;
  if (n == "licm") return "licm";
  return n;
}

}  // namespace

std::unique_ptr<Pass> createPass(std::string_view name) {
  const std::string canon = canonicalName(name);
  auto it = factoryTable().find(canon);
  if (it == factoryTable().end()) return nullptr;
  return it->second();
}

std::vector<std::string> allPassNames() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : factoryTable()) names.push_back(name);
  return names;
}

void registerPass(const std::string& name,
                  std::function<std::unique_ptr<Pass>()> factory) {
  POSETRL_CHECK(!name.empty(), "registerPass needs a name");
  factoryTable()[name] = std::move(factory);
}

std::vector<std::string> parsePassSequence(std::string_view sequence,
                                           bool strict) {
  std::vector<std::string> out;
  for (const std::string& token : splitString(sequence, ' ')) {
    const std::string name = canonicalName(trimString(token));
    if (name.empty()) continue;
    if (factoryTable().count(name) == 0) {
      POSETRL_CHECK(!strict, "unknown pass in sequence: ", name);
      continue;
    }
    out.push_back(name);
  }
  return out;
}

bool runPassSequence(Module& module,
                     const std::vector<std::string>& pass_names) {
  ArenaScope arena_scope(module.arena());
  bool changed = false;
  // Conservative content-stamp bump: this path has no contract checker to
  // catch a pass lying about `changed`, so any non-empty sequence may have
  // mutated the module.
  if (!pass_names.empty()) module.bumpContentStamp();
  for (const std::string& name : pass_names) {
    std::unique_ptr<Pass> pass = createPass(name);
    POSETRL_CHECK(pass != nullptr, "unknown pass: ", name);
    changed |= pass->run(module);
  }
  return changed;
}

bool runPassSequence(Module& module,
                     const std::vector<std::string>& pass_names,
                     PassInstrumentation& instr) {
  std::vector<std::unique_ptr<Pass>> owned;
  std::vector<Pass*> passes;
  owned.reserve(pass_names.size());
  for (const std::string& name : pass_names) {
    std::unique_ptr<Pass> pass = createPass(name);
    POSETRL_CHECK(pass != nullptr, "unknown pass: ", name);
    passes.push_back(pass.get());
    owned.push_back(std::move(pass));
  }
  return runPasses(module, passes, &instr);
}

bool runPasses(Module& module, const std::vector<Pass*>& passes,
               PassInstrumentation* instr) {
  ArenaScope arena_scope(module.arena());
  if (!passes.empty()) module.bumpContentStamp();
  if (instr != nullptr) instr->beginSequence(module);
  bool changed = false;
  for (Pass* pass : passes) {
    POSETRL_CHECK(pass != nullptr, "null pass in runPasses");
    if (instr != nullptr) instr->beforePass(*pass, module);
    const bool pass_changed = pass->run(module);
    changed |= pass_changed;
    if (instr != nullptr) instr->afterPass(*pass, module, pass_changed);
  }
  return changed;
}

}  // namespace posetrl
