/// \file ablation_odg_threshold.cpp
/// Ablation of the ODG critical-node threshold k (the paper chooses
/// k >= 8, yielding simplifycfg/instcombine/loop-simplify as critical
/// nodes and 34 sub-sequences). Sweeps k and reports the resulting action
/// spaces; also sanity-checks that every generated walk is a runnable pass
/// sequence.

#include <cstdio>

#include "core/odg.h"
#include "core/oz_sequence.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "passes/pass.h"
#include "support/table.h"
#include "workloads/generator.h"

using namespace posetrl;

int main() {
  OzDependenceGraph odg(ozPassNames());
  std::printf("=== Ablation: ODG critical-node threshold k (paper: k >= 8) "
              "===\n\n");
  TextTable table;
  table.addRow({"k", "critical nodes", "walks", "mean walk length"});
  for (std::size_t k = 5; k <= 11; ++k) {
    const auto critical = odg.criticalNodes(k);
    const auto walks = odg.subSequenceWalks(k);
    double mean_len = 0.0;
    for (const auto& w : walks) mean_len += static_cast<double>(w.size());
    if (!walks.empty()) mean_len /= static_cast<double>(walks.size());
    std::string names;
    for (const auto& c : critical) names += (names.empty() ? "" : ",") + c;
    table.addRow({std::to_string(k),
                  std::to_string(critical.size()) + " (" + names + ")",
                  std::to_string(walks.size()),
                  std::to_string(mean_len).substr(0, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  // Every k=8 walk must be runnable and semantics-preserving on a probe
  // program (spot check of the action-space machinery).
  ProgramSpec spec;
  spec.seed = 77;
  spec.kernels = 3;
  auto base = generateProgram(spec);
  std::size_t checked = 0;
  for (const auto& walk : odg.subSequenceWalks(8)) {
    auto m = generateProgram(spec);
    runPassSequence(*m, walk);
    const auto vr = verifyModule(*m);
    if (!vr.ok()) {
      std::printf("!! walk broke the verifier: %s\n", vr.message().c_str());
      return 1;
    }
    ++checked;
  }
  std::printf("all %zu generated walks ran cleanly on the probe program\n",
              checked);
  return 0;
}
