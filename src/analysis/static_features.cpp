#include "analysis/static_features.h"

#include <cmath>

#include "analysis/analysis_manager.h"
#include "analysis/liveness.h"
#include "analysis/loop_info.h"
#include "analysis/reaching_defs.h"
#include "analysis/value_range.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instruction.h"
#include "ir/module.h"

namespace posetrl {

namespace {

const char* const kFeatureNames[kStaticFeatureDim] = {
    "functions",           // 0
    "blocks",              // 1
    "instructions",        // 2
    "avg_block_size",      // 3
    "cfg_edges",           // 4
    "blocks_single_succ",  // 5
    "blocks_two_succ",     // 6
    "blocks_multi_pred",   // 7
    "critical_edges",      // 8
    "phis",                // 9
    "phi_incoming",        // 10
    "args",                // 11
    "allocas",             // 12
    "loads",               // 13
    "stores",              // 14
    "geps",                // 15
    "calls",               // 16
    "rets",                // 17
    "brs",                 // 18
    "condbrs",             // 19
    "switches",            // 20
    "selects",             // 21
    "icmps",               // 22
    "fcmps",               // 23
    "int_binops",          // 24
    "float_binops",        // 25
    "casts",               // 26
    "const_int_operands",  // 27
    "loops",               // 28
    "max_loop_depth",      // 29
    "blocks_in_loops",     // 30
    "loop_preheaders",     // 31
    "max_live_pressure",   // 32
    "avg_live_in",         // 33
    "dead_defs",           // 34
    "single_use_defs",     // 35
    "avg_uses_per_def",    // 36
    "single_reach_loads",  // 37
    "range_bounded_defs",  // 38
    "avg_range_width",     // 39
};

}  // namespace

const char* staticFeatureName(std::size_t i) {
  return i < kStaticFeatureDim ? kFeatureNames[i] : "unknown";
}

std::vector<double> extractStaticFeatures(Module& m, AnalysisManager& am) {
  double raw[kStaticFeatureDim] = {0.0};

  double live_in_weighted = 0.0;
  double uses_weighted = 0.0;
  double range_width_weighted = 0.0;
  double def_total = 0.0;
  double tracked_total = 0.0;
  double block_total = 0.0;

  for (const auto& fptr : m.functions()) {
    Function& f = *fptr;
    if (f.isDeclaration()) continue;
    raw[0] += 1;
    raw[11] += static_cast<double>(f.numArgs());

    std::size_t defs = 0, use_total = 0;
    for (const auto& b : f.blocks()) {
      raw[1] += 1;
      const auto succs = b->successors();
      raw[4] += static_cast<double>(succs.size());
      if (succs.size() == 1) raw[5] += 1;
      if (succs.size() == 2) raw[6] += 1;
      if (b->predecessors().size() >= 2) raw[7] += 1;
      // Critical edge: multi-successor source into multi-predecessor sink.
      if (succs.size() >= 2)
        for (BasicBlock* s : succs)
          if (s->predecessors().size() >= 2) raw[8] += 1;

      for (const auto& inst : b->insts()) {
        raw[2] += 1;
        switch (inst->opcode()) {
          case Opcode::Phi:
            raw[9] += 1;
            raw[10] += static_cast<double>(
                cast<PhiInst>(inst.get())->numIncoming());
            break;
          case Opcode::Alloca: raw[12] += 1; break;
          case Opcode::Load: raw[13] += 1; break;
          case Opcode::Store: raw[14] += 1; break;
          case Opcode::Gep: raw[15] += 1; break;
          case Opcode::Call: raw[16] += 1; break;
          case Opcode::Ret: raw[17] += 1; break;
          case Opcode::Br: raw[18] += 1; break;
          case Opcode::CondBr: raw[19] += 1; break;
          case Opcode::Switch: raw[20] += 1; break;
          case Opcode::Select: raw[21] += 1; break;
          case Opcode::ICmp: raw[22] += 1; break;
          case Opcode::FCmp: raw[23] += 1; break;
          default:
            if (inst->isIntBinaryOp()) raw[24] += 1;
            else if (inst->isFloatBinaryOp()) raw[25] += 1;
            else if (inst->isCast()) raw[26] += 1;
            break;
        }
        for (const Value* op : inst->operands())
          if (isa<ConstantInt>(op)) raw[27] += 1;
        // Def-use shape from the use lists, which the verifier holds equal
        // to the operand counts.
        if (!inst->type()->isVoid()) {
          ++defs;
          const std::size_t uses = inst->numUses();
          use_total += uses;
          if (uses == 0) raw[34] += 1;
          if (uses == 1) raw[35] += 1;
        }
      }
    }

    const LoopInfo& li = am.loopInfo(f);
    raw[28] += static_cast<double>(li.loopCount());
    for (const Loop* l : li.loopsInnermostFirst()) {
      if (static_cast<double>(l->depth()) > raw[29])
        raw[29] = static_cast<double>(l->depth());
      if (l->preheader() != nullptr) raw[31] += 1;
    }
    for (const auto& b : f.blocks())
      if (li.loopFor(b.get()) != nullptr) raw[30] += 1;

    const LivenessInfo& lv = am.liveness(f);
    if (static_cast<double>(lv.maxPressure()) > raw[32])
      raw[32] = static_cast<double>(lv.maxPressure());
    live_in_weighted += lv.avgLiveIn() * static_cast<double>(f.numBlocks());
    block_total += static_cast<double>(f.numBlocks());

    // The per-function mean is weighted back by the def count, so the
    // module mean rounds exactly as a per-function summary would.
    const double avg_uses = defs == 0 ? 0.0
                                      : static_cast<double>(use_total) /
                                            static_cast<double>(defs);
    uses_weighted += avg_uses * static_cast<double>(defs);
    def_total += static_cast<double>(defs);

    const ReachingDefs& rd = am.reachingDefs(f);
    raw[37] += static_cast<double>(rd.singleReachingLoads());

    const ValueRanges& vr = am.valueRanges(f);
    raw[38] += static_cast<double>(vr.boundedCount());
    range_width_weighted +=
        vr.avgWidthLog2() * static_cast<double>(vr.trackedCount());
    tracked_total += static_cast<double>(vr.trackedCount());
  }

  raw[3] = raw[1] == 0.0 ? 0.0 : raw[2] / raw[1];
  raw[33] = block_total == 0.0 ? 0.0 : live_in_weighted / block_total;
  raw[36] = def_total == 0.0 ? 0.0 : uses_weighted / def_total;
  raw[39] =
      tracked_total == 0.0 ? 0.0 : range_width_weighted / tracked_total;

  std::vector<double> out(kStaticFeatureDim);
  for (std::size_t i = 0; i < kStaticFeatureDim; ++i)
    out[i] = std::log1p(raw[i]);
  return out;
}

}  // namespace posetrl
