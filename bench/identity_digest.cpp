/// \file identity_digest.cpp
/// Byte-identity digests of what the program produces, so a change that
/// claims "outputs unchanged" is checked by a tool instead of by hand.
/// Printed as key=value lines (FNV-1a digests in hex):
///   - train_rewards, train_model: a default-config 4000-step trainAgent
///     over e2ebench's reference corpus, run first in this fresh process:
///     its per-episode rewards (the doubles' bytes) and its saveModel
///     bytes;
///   - train2_rewards, train2_model: the same for a 1000-step run with
///     num_actors = 2 (the parallel actor-learner trainer), run in a child
///     forked before anything else, so it too starts from a fresh process;
///   - oz_request_pool, oz_serve_pool: the printed output of the serving
///     ladder's sandboxed -Oz rung over e2ebench's 2240 compile-pool and
///     64 serve-pool programs (a faulting rung contributes its fault
///     kind and pass instead of text);
///   - served_*: the 4000-step agent served through CompileService::compile
///     on the first 280 compile-pool programs (20 per size class), with no
///     deadline and breakers that never trip, so nothing depends on the
///     clock: the digest of the printed responses, the exact geomeans of
///     their modeled size and McaModel cycles against -Oz's output (%.17g),
///     and the number of responses on each ServiceLevel.
/// The program specs are copies of e2ebench/common.cpp's (trainCorpus,
/// RequestStream::poolSpec, servePool); keep them in step.
///
/// Usage: identity_digest [--check FILE]
///   With --check, compares every digest with FILE's key=value lines (the
///   checked-in bench/identity_digests.txt) and exits 1 on any difference
///   or missing key. A change that moves a digest must say so and update
///   the file.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
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
#include "serve/service.h"
#include "support/hashing.h"
#include "support/rng.h"
#include "support/stats.h"
#include "target/mca_model.h"
#include "target/target_info.h"
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
/// default environment's sandbox switches, without a deadline. Returns the
/// output, or null with \p fault filled when the rung faulted.
std::unique_ptr<Module> ozRung(const Module& program, FaultReport* fault) {
  auto oz = cloneModule(program);
  for (const auto& f : oz->functions()) f->resetNameCounters();
  const SandboxOutcome out =
      runActionSandboxed(oz, ozPassNames(), sandboxConfigFor(EnvConfig{}));
  if (out.ok) return oz;
  *fault = out.fault;
  return nullptr;
}

std::string ozRungText(const Module& program) {
  FaultReport fault;
  const std::unique_ptr<Module> oz = ozRung(program, &fault);
  if (oz == nullptr)
    return std::string("fault ") + faultKindName(fault.kind) + " " +
           fault.pass + "\n";
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

std::string hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
  return buf;
}

/// Trains on the reference corpus and records the run's digests under
/// \p prefix; returns the trained result.
TrainResult trainDigests(const TrainConfig& cfg, const std::string& prefix,
                         std::map<std::string, std::string>& out) {
  const auto corpus = referenceCorpus();
  std::vector<const Module*> ptrs;
  for (const auto& m : corpus) ptrs.push_back(m.get());
  TrainResult trained = trainAgent(ptrs, cfg);
  const std::vector<double>& rewards = trained.stats.episode_rewards;
  out[prefix + "_rewards"] = hex(
      fnv1a(std::string_view(reinterpret_cast<const char*>(rewards.data()),
                             rewards.size() * sizeof(double))));
  std::ostringstream model;
  trained.agent->saveModel(model);
  out[prefix + "_model"] = hex(fnv1a(model.str()));
  return trained;
}

/// Serves the first 280 compile-pool programs with \p agent (see the file
/// comment) and records the served_* lines.
void servedDigests(const DoubleDqn& agent,
                   std::map<std::string, std::string>& out) {
  ServeConfig sc;
  sc.workers = 2;
  sc.start_workers = false;
  sc.breaker.failure_threshold = std::numeric_limits<std::size_t>::max();
  CompileService service(agent, odgSubSequences(), sc);
  const McaModel mca(TargetInfo::forArch(sc.env.arch));
  std::uint64_t text = kFnvOffset;
  std::vector<double> size_ratio, cycle_ratio;
  std::map<std::string, std::size_t> levels;
  for (ServiceLevel l : {ServiceLevel::FullRollout, ServiceLevel::BestPrefix,
                         ServiceLevel::OzPipeline, ServiceLevel::Identity}) {
    levels[serviceLevelName(l)] = 0;
  }
  for (std::size_t j = 0; j < 280; ++j) {
    const std::unique_ptr<Module> program = generateProgram(requestPoolSpec(j));
    ServeResult r = service.compile(*program, Deadline::never());
    ++levels[serviceLevelName(r.level)];
    if (r.optimized == nullptr) {
      text = fnv1a(std::string("no output ") + r.degraded_reason + "\n", text);
      continue;
    }
    text = fnv1a(printModule(*r.optimized), text);
    FaultReport fault;
    const std::unique_ptr<Module> oz = ozRung(*program, &fault);
    if (!r.oz_verified || oz == nullptr) continue;
    size_ratio.push_back(r.size_bytes / r.oz_size_bytes);
    cycle_ratio.push_back(mca.moduleEstimate(*r.optimized).weighted_cycles /
                          mca.moduleEstimate(*oz).weighted_cycles);
  }
  const auto exact = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  out["served_text"] = hex(text);
  out["served_size_vs_oz"] = exact(geometricMean(size_ratio));
  out["served_cycles_vs_oz"] = exact(geometricMean(cycle_ratio));
  for (const auto& [name, n] : levels) {
    out["served_level_" + name] = std::to_string(n);
  }
}

/// Runs the 2-actor training in a child forked before this process
/// allocates anything, and returns its key=value lines as text. The parent
/// reads into a fixed buffer, so its own heap is left as it was.
void twoActorLinesInChild(char* buf, std::size_t cap) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("identity_digest: pipe");
    std::exit(2);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("identity_digest: fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fds[0]);
    std::map<std::string, std::string> out;
    TrainConfig cfg;
    cfg.total_steps = 1000;
    cfg.num_actors = 2;
    trainDigests(cfg, "train2", out);
    std::string text;
    for (const auto& [key, value] : out) text += key + "=" + value + "\n";
    const bool ok =
        write(fds[1], text.data(), text.size()) ==
        static_cast<ssize_t>(text.size());
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::size_t used = 0;
  for (;;) {
    const ssize_t n = read(fds[0], buf + used, cap - 1 - used);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    used += static_cast<std::size_t>(n);
  }
  buf[used] = '\0';
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "identity_digest: 2-actor training failed\n");
    std::exit(2);
  }
}

std::map<std::string, std::string> computeDigests() {
  char two_actor[512];
  twoActorLinesInChild(two_actor, sizeof two_actor);
  std::map<std::string, std::string> out;
  TrainConfig cfg;
  cfg.total_steps = 4000;
  const TrainResult trained = trainDigests(cfg, "train", out);
  out["oz_request_pool"] = hex(ozPoolDigest(14 * 160, requestPoolSpec));
  out["oz_serve_pool"] = hex(ozPoolDigest(64, servePoolSpec));
  servedDigests(*trained.agent, out);
  std::istringstream lines(two_actor);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t eq = line.find('=');
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
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
  for (const auto& [key, value] : computeDigests()) {
    std::printf("%s=%s\n", key.c_str(), value.c_str());
    if (check == nullptr) continue;
    const auto it = expected.find(key);
    if (it == expected.end()) {
      std::fprintf(stderr, "identity_digest: %s missing from %s\n",
                   key.c_str(), check);
      status = 1;
    } else if (it->second != value) {
      std::fprintf(stderr, "identity_digest: %s is %s, %s pins %s\n",
                   key.c_str(), value.c_str(), check, it->second.c_str());
      status = 1;
    }
  }
  return status;
}
