#pragma once

/// \file static_features.h
/// AutoPhase-style static feature vector: 40 cheap counts/ratios summarizing
/// a module's IR, backed by the cached analyses of an AnalysisManager
/// (liveness pressure, loop structure, reaching stores, value-range
/// tightness). The def-use shape (dead and single-use defs, mean uses per
/// def) reads the IR's use lists, which the fast verifier holds equal to
/// the operand counts. Serves as an alternative observation space for
/// PhaseOrderEnv next to the IR2Vec-like flow embedding: 40 dims instead of
/// 300, no flow iterations, and fully incremental across untouched
/// functions.

#include <cstddef>
#include <vector>

namespace posetrl {

class AnalysisManager;
class Module;

constexpr std::size_t kStaticFeatureDim = 40;

/// Extracts the feature vector for \p m. Every component is log1p-squashed
/// so magnitudes stay comparable across module sizes (counts grow
/// logarithmically, ratios stay near their raw scale).
std::vector<double> extractStaticFeatures(Module& m, AnalysisManager& am);

/// Stable name of feature component \p i (for diagnostics and benchmarks).
const char* staticFeatureName(std::size_t i);

}  // namespace posetrl
