#pragma once

// Random pass sequences ("pass soups") shared by the fuzz and embedding
// tests: outputs of arbitrary pass orderings exercise IR shapes (phis,
// vectorized loops, dead blocks) that a curated pipeline never produces.
// Also the fingerprint-memo cross-check run after every pass of a soup.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/function.h"
#include "ir/module.h"
#include "passes/pass.h"
#include "support/rng.h"

namespace posetrl {

/// Real optimization passes only, in a deterministic order: the registry is
/// an unordered map that other tests extend with deliberately broken
/// "test-*" / "fault-*" passes, and a single-process run of the whole
/// binary would otherwise leak those into the soup (and reorder it
/// run-to-run under ASLR).
inline std::vector<std::string> fuzzablePassNames() {
  std::vector<std::string> names = allPassNames();
  names.erase(std::remove_if(names.begin(), names.end(),
                             [](const std::string& n) {
                               return n.rfind("fault-", 0) == 0 ||
                                      n.rfind("test-", 0) == 0;
                             }),
              names.end());
  std::sort(names.begin(), names.end());
  return names;
}

/// \p count passes drawn uniformly from \p names.
inline std::vector<std::string> randomSoup(
    const std::vector<std::string>& names, Rng& rng, int count) {
  std::vector<std::string> soup;
  for (int i = 0; i < count; ++i)
    soup.push_back(names[rng.nextBelow(names.size())]);
  return soup;
}

/// Fingerprints every function, so each memo is current before a pass runs.
inline void warmFingerprintMemos(const Module& m) {
  for (const auto& f : m.functions()) fingerprintFunction(*f);
}

/// Holds the memo to its contract after arbitrary IR edits: wherever a
/// function's memo is still current (its body generation has not moved
/// since the last walk), the memoized hashes equal a fresh walk. A
/// mismatch means some mutation path forgot to bump the generation.
/// Returns how many functions were compared.
inline std::size_t expectFingerprintMemosFresh(const Module& m,
                                               const std::string& what) {
  std::size_t compared = 0;
  for (const auto& f : m.functions()) {
    const Function::FingerprintMemo& memo = f->fingerprintMemo();
    if (memo.generation != f->bodyGeneration()) continue;
    std::uint64_t aux = 0;
    const FunctionFingerprint fresh = walkFingerprint(*f, aux);
    EXPECT_EQ(memo.cfg, fresh.cfg) << what << " @" << f->name();
    EXPECT_EQ(memo.instrs, fresh.instrs) << what << " @" << f->name();
    EXPECT_EQ(memo.aux, aux) << what << " @" << f->name();
    ++compared;
  }
  return compared;
}

}  // namespace posetrl
