#pragma once

// Random pass sequences ("pass soups") shared by the fuzz and embedding
// tests: outputs of arbitrary pass orderings exercise IR shapes (phis,
// vectorized loops, dead blocks) that a curated pipeline never produces.

#include <algorithm>
#include <string>
#include <vector>

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

}  // namespace posetrl
