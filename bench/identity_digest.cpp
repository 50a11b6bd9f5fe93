/// \file identity_digest.cpp
/// Byte-identity digests of what the program produces, so a change that
/// claims "outputs unchanged" is checked by a tool instead of by hand.
/// Four FNV-1a digests, printed as key=value lines:
///   - train_rewards, train_model: a default-config 4000-step trainAgent
///     over e2ebench's reference corpus, run first in this fresh process:
///     its per-episode rewards (the doubles' bytes) and its saveModel
///     bytes;
///   - oz_request_pool, oz_serve_pool: the printed output of the serving
///     ladder's sandboxed -Oz rung over e2ebench's 2240 compile-pool and
///     64 serve-pool programs (a faulting rung contributes its fault
///     kind and pass instead of text).
/// The program specs are copies of e2ebench/common.cpp's (trainCorpus,
/// RequestStream::poolSpec, servePool); keep them in step.
///
/// Usage: identity_digest [--check FILE]
///   With --check, compares every digest with FILE's key=value lines (the
///   checked-in bench/identity_digests.txt) and exits 1 on any difference
///   or missing key. A change that moves a digest must say so and update
///   the file.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "core/trainer.h"
#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/function.h"
#include "ir/module.h"
#include "ir/printer.h"
#include "rl/dqn.h"
#include "support/hashing.h"
#include "support/rng.h"
#include "workloads/generator.h"
#include "workloads/suites.h"

using namespace posetrl;

namespace {

/// e2ebench/common.cpp trainCorpus(2022, 32): the reference agent's corpus.
std::vector<std::unique_ptr<Module>> referenceCorpus() {
  const SuiteSpec corpus = trainingCorpus(130, 2022);
  std::vector<bool> used(corpus.programs.size(), false);
  std::vector<std::unique_ptr<Module>> out;
  for (std::size_t i = 0; i < 32; ++i) {
    const int kernels = 4 + static_cast<int>(i % 2);
    std::size_t pick = corpus.programs.size();
    for (std::size_t j = 0; j < corpus.programs.size(); ++j) {
      if (used[j]) continue;
      if (pick == corpus.programs.size()) pick = j;
      if (corpus.programs[j].kernels == kernels) {
        pick = j;
        break;
      }
    }
    used[pick] = true;
    out.push_back(generateProgram(corpus.programs[pick]));
  }
  return out;
}

/// e2ebench/common.cpp RequestStream::poolSpec: 14 size classes x 160.
ProgramSpec requestPoolSpec(std::size_t j) {
  ProgramSpec spec;
  spec.name = "req" + std::to_string(j);
  spec.seed = Rng::forStream(0x4e0e57, j).next();
  spec.kernels = 2 + static_cast<int>(j % 14);
  return spec;
}

/// e2ebench/common.cpp servePool: 64 ranks.
ProgramSpec servePoolSpec(std::size_t rank) {
  ProgramSpec spec;
  spec.name = "pool" + std::to_string(rank);
  spec.seed = Rng::forStream(0x9001, rank).next();
  spec.kernels = 2 + static_cast<int>((5 * rank) % 14);
  return spec;
}

/// The serving ladder's -Oz rung (CompileService::OzRung::run) under the
/// default environment's sandbox switches, without a deadline.
std::string ozRungText(const Module& program) {
  auto oz = cloneModule(program);
  for (const auto& f : oz->functions()) f->resetNameCounters();
  const SandboxOutcome out =
      runActionSandboxed(oz, ozPassNames(), sandboxConfigFor(EnvConfig{}));
  if (!out.ok)
    return std::string("fault ") + faultKindName(out.fault.kind) + " " +
           out.fault.pass + "\n";
  return printModule(*oz);
}

template <typename SpecFn>
std::uint64_t ozPoolDigest(std::size_t count, SpecFn spec) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t j = 0; j < count; ++j) {
    const std::unique_ptr<Module> program = generateProgram(spec(j));
    h = fnv1a(ozRungText(*program), h);
  }
  return h;
}

std::map<std::string, std::uint64_t> computeDigests() {
  std::map<std::string, std::uint64_t> out;
  {
    const auto corpus = referenceCorpus();
    std::vector<const Module*> ptrs;
    for (const auto& m : corpus) ptrs.push_back(m.get());
    TrainConfig cfg;
    cfg.total_steps = 4000;
    const TrainResult trained = trainAgent(ptrs, cfg);
    const std::vector<double>& rewards = trained.stats.episode_rewards;
    out["train_rewards"] = fnv1a(
        std::string_view(reinterpret_cast<const char*>(rewards.data()),
                         rewards.size() * sizeof(double)));
    std::ostringstream model;
    trained.agent->saveModel(model);
    out["train_model"] = fnv1a(model.str());
  }
  out["oz_request_pool"] = ozPoolDigest(14 * 160, requestPoolSpec);
  out["oz_serve_pool"] = ozPoolDigest(64, servePoolSpec);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* check = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
    check = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--check FILE]\n", argv[0]);
    return 2;
  }
  std::map<std::string, std::string> expected;
  if (check != nullptr) {
    std::ifstream in(check);
    if (!in) {
      std::fprintf(stderr, "identity_digest: cannot read %s\n", check);
      return 2;
    }
    for (std::string line; std::getline(in, line);) {
      const std::size_t eq = line.find('=');
      if (line.empty() || line[0] == '#' || eq == std::string::npos) continue;
      expected[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }

  int status = 0;
  for (const auto& [key, digest] : computeDigests()) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
    std::printf("%s=%s\n", key.c_str(), hex);
    if (check == nullptr) continue;
    const auto it = expected.find(key);
    if (it == expected.end()) {
      std::fprintf(stderr, "identity_digest: %s missing from %s\n",
                   key.c_str(), check);
      status = 1;
    } else if (it->second != hex) {
      std::fprintf(stderr, "identity_digest: %s is %s, %s pins %s\n",
                   key.c_str(), hex, check, it->second.c_str());
      status = 1;
    }
  }
  return status;
}
