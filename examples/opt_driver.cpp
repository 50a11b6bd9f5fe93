/// \file opt_driver.cpp
/// A miniature `opt`: reads a MiniIR file, applies a pass sequence given on
/// the command line (or -Oz / -O3), and prints the optimized module with
/// before/after statistics. Doubles as the command-line front end of the
/// lint subsystem (see DESIGN.md "Correctness tooling") and of the fault-
/// tolerance subsystem (DESIGN.md "Fault tolerance").
///
/// Usage:
///   opt_driver <file.mir> [-Oz | -O3 | -pass1 -pass2 ...] [options]
///   opt_driver --selftest [options]      (runs on a built-in example)
/// Options:
///   --run        execute the module before and after the passes
///   --quiet      do not print the optimized IR
///   --lint       run the lint checkers on the input and print the report
///   --lint-each  run verifier + lint after every pass, attributing new
///                findings to the pass that introduced them
///   --oracle     also run the differential miscompile oracle each pass
///   --json       print machine-readable reports instead of tables
///   --kv         print stable key=value lines (one per line) instead of
///                tables — the scripting-friendly companion to --json, used
///                by tools/check.sh; --train prints its stats, a pass run
///                prints fingerprint_walks= and fingerprint_memo_hits= (the
///                fingerprint work counters, analysis/analysis_manager.h)
/// Fault tolerance:
///   --sandbox            apply the passes under snapshot/rollback; a fault
///                        prints a FaultReport and exits non-zero
///   --max-ir-growth <f>  IR-growth cap for the sandbox (implies --sandbox)
///   --verify             per-pass fast verification + pass-contract checks
///                        (--verify-actions is an accepted alias); this is
///                        already the default for sandboxed runs — the flag
///                        exists to force it where a config turned it off
///   --inject-faults      register the fault-injection passes (fault-throw,
///                        fault-bloat, fault-hang, ...) before running
/// Training (the module becomes a one-program corpus):
///   --train <steps>      train an agent for <steps> env steps, print stats
///   --features <kind>    agent state representation: "embedding" (default,
///                        IR2Vec-style 300-dim) or "static" (the 40-dim
///                        AutoPhase-style feature vector backed by the
///                        cached analyses; see DESIGN.md "Static analysis")
///   --train-actors <n>   concurrent rollout actors for --train (default 1;
///                        >= 2 uses the parallel actor-learner pipeline,
///                        which does not support --checkpoint/--resume)
///   --checkpoint <path>  write crash-safe checkpoints during --train
///   --checkpoint-every <n>  checkpoint interval in env steps (default 100)
///   --resume <path>      continue --train from a checkpoint file
/// Exit status is non-zero for verify failures, lint errors, oracle
/// divergences and sandbox faults; lint warnings/notes alone do not fail
/// the run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/analysis_manager.h"
#include "core/oz_sequence.h"
#include "core/trainer.h"
#include "faults/injection.h"
#include "faults/sandbox.h"
#include "interp/interpreter.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lint/instrumentation.h"
#include "lint/lint.h"
#include "passes/pass.h"
#include "target/mca_model.h"
#include "target/size_model.h"

using namespace posetrl;

namespace {

const char* kSelfTestProgram = R"(
module "selftest"
declare @pr.sink : fn(i64) -> void intrinsic sink
define @main : fn() -> i64 external {
block entry:
  %x : i64 = add i64 20, i64 21
  %y : i64 = add i64 20, i64 21
  %sum : i64 = add %x, %y
  %half : i64 = udiv %sum, i64 2
  call @pr.sink(%half)
  ret %half
}
)";

void report(const char* label, Module& m, bool run) {
  SizeModel sm(TargetInfo::x86_64());
  McaModel mca(TargetInfo::x86_64());
  std::printf("[%s] %zu instructions, %.0f bytes, throughput %.3f",
              label, m.instructionCount(), sm.objectBytes(m),
              mca.moduleEstimate(m).throughput());
  if (run) {
    const ExecResult r = runModule(m);
    if (r.ok) {
      std::printf(", ran ok: ret=%lld cycles=%.0f",
                  static_cast<long long>(r.return_value), r.cycles);
    } else {
      std::printf(", TRAP: %s", r.trap.c_str());
    }
  }
  std::printf("\n");
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <file.mir> [-Oz | -O3 | -pass ...] "
               "[--run] [--quiet] [--lint] [--lint-each] [--oracle] "
               "[--json] [--kv] [--sandbox] [--max-ir-growth <f>] "
               "[--verify] [--inject-faults] [--train <steps>] "
               "[--features <static|embedding>] [--train-actors <n>] "
               "[--checkpoint <path>] [--resume <path>]\n"
               "       %s --selftest [options]\n",
               prog, prog);
  return 1;
}

int runTrainingMode(Module& m, std::size_t train_steps,
                    std::size_t train_actors, bool inject_faults,
                    bool verify_actions, bool static_features,
                    double max_ir_growth, const std::string& checkpoint,
                    std::size_t checkpoint_every, const std::string& resume,
                    bool json, bool kv) {
  std::vector<const Module*> corpus{&m};
  std::vector<SubSequence> actions = manualSubSequences();
  if (inject_faults) {
    registerFaultInjectionPasses();
    int id = static_cast<int>(actions.size());
    actions.push_back({++id, {"fault-throw"}});
    actions.push_back({++id, {"fault-bloat"}});
    actions.push_back({++id, {"fault-hang"}});
  }
  TrainConfig cfg;
  cfg.total_steps = train_steps;
  cfg.actions = &actions;
  cfg.agent.num_actions = actions.size();
  cfg.env.verify_actions = cfg.env.verify_actions || verify_actions;
  if (static_features) cfg.env.state_kind = StateKind::StaticFeatures;
  // The agent's input width must track the state representation.
  cfg.agent.state_dim = cfg.env.stateDim();
  if (max_ir_growth > 0.0) cfg.env.sandbox.max_ir_growth = max_ir_growth;
  cfg.checkpoint_path = checkpoint;
  cfg.checkpoint_every_steps = checkpoint_every;
  cfg.num_actors = train_actors;

  const TrainResult result = resume.empty()
                                 ? trainAgent(corpus, cfg)
                                 : resumeTraining(corpus, cfg, resume);
  const TrainStats& s = result.stats;
  if (kv) {
    // One key=value per line: trivially parseable from shell without
    // depending on field order or JSON quoting.
    std::printf("steps=%zu\n", s.steps);
    std::printf("actors=%zu\n", train_actors);
    std::printf("features=%s\n", static_features ? "static" : "embedding");
    std::printf("state_dim=%zu\n", cfg.env.stateDim());
    std::printf("episodes=%zu\n", s.episodes);
    std::printf("mean_reward=%.6f\n", s.mean_episode_reward);
    std::printf("faults=%zu\n", s.faults);
    std::printf("quarantined=%zu\n", s.quarantined_actions);
    std::printf("checkpoints=%zu\n", s.checkpoints_written);
    std::printf("analysis_hits=%zu\n", s.analysis.hits);
    std::printf("analysis_misses=%zu\n", s.analysis.misses);
    std::printf("analysis_hit_rate=%.6f\n", s.analysis.hitRate());
    std::printf("analysis_invalidations=%zu\n", s.analysis.invalidations);
    std::printf("contract_checks=%zu\n", s.analysis.contract_checks);
    std::printf("contract_violations=%zu\n", s.analysis.contract_violations);
    std::printf("embed_cache_hits=%zu\n", s.embed_cache.hits);
    std::printf("embed_cache_misses=%zu\n", s.embed_cache.misses);
    for (const auto& [kind, count] : s.faults_by_kind) {
      std::printf("fault_%s=%zu\n", kind.c_str(), count);
    }
  } else if (json) {
    std::printf("{\"steps\":%zu,\"episodes\":%zu,\"mean_reward\":%.6f,"
                "\"faults\":%zu,\"quarantined\":%zu,\"checkpoints\":%zu}\n",
                s.steps, s.episodes, s.mean_episode_reward, s.faults,
                s.quarantined_actions, s.checkpoints_written);
  } else {
    std::printf("[train] steps=%zu episodes=%zu mean_reward=%.3f "
                "faults=%zu quarantined=%zu checkpoints=%zu\n",
                s.steps, s.episodes, s.mean_episode_reward, s.faults,
                s.quarantined_actions, s.checkpoints_written);
    for (const auto& [kind, count] : s.faults_by_kind) {
      std::printf("[train]   fault %-18s x%zu\n", kind.c_str(), count);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  std::string file;
  std::vector<std::string> passes;
  bool selftest = false;
  bool run = false;
  bool print_ir = true;
  bool lint_input = false;
  bool lint_each = false;
  bool oracle = false;
  bool json = false;
  bool kv = false;
  bool sandbox = false;
  bool verify_actions = false;
  bool static_features = false;
  bool inject_faults = false;
  double max_ir_growth = 0.0;
  std::size_t train_steps = 0;
  std::size_t train_actors = 1;
  std::string checkpoint;
  std::size_t checkpoint_every = 100;
  std::string resume;

  const auto nextArg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::exit(usage(argv[0]));
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(a, "--run") == 0) {
      run = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      print_ir = false;
    } else if (std::strcmp(a, "--lint") == 0) {
      lint_input = true;
    } else if (std::strcmp(a, "--lint-each") == 0) {
      lint_each = true;
    } else if (std::strcmp(a, "--oracle") == 0) {
      oracle = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--kv") == 0) {
      kv = true;
    } else if (std::strcmp(a, "--sandbox") == 0) {
      sandbox = true;
    } else if (std::strcmp(a, "--max-ir-growth") == 0) {
      max_ir_growth = std::atof(nextArg(i));
      sandbox = true;
    } else if (std::strcmp(a, "--verify") == 0 ||
               std::strcmp(a, "--verify-actions") == 0) {
      verify_actions = true;
    } else if (std::strcmp(a, "--features") == 0 ||
               std::strncmp(a, "--features=", 11) == 0) {
      const char* kind = a[10] == '=' ? a + 11 : nextArg(i);
      if (std::strcmp(kind, "static") == 0) {
        static_features = true;
      } else if (std::strcmp(kind, "embedding") == 0) {
        static_features = false;
      } else {
        std::fprintf(stderr, "--features expects 'static' or 'embedding', "
                             "got '%s'\n", kind);
        return 1;
      }
    } else if (std::strcmp(a, "--inject-faults") == 0) {
      inject_faults = true;
    } else if (std::strcmp(a, "--train") == 0) {
      train_steps = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--train-actors") == 0) {
      train_actors = static_cast<std::size_t>(std::atoll(nextArg(i)));
      if (train_actors == 0) train_actors = 1;
    } else if (std::strcmp(a, "--checkpoint") == 0) {
      checkpoint = nextArg(i);
    } else if (std::strcmp(a, "--checkpoint-every") == 0) {
      checkpoint_every = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--resume") == 0) {
      resume = nextArg(i);
    } else if (std::strcmp(a, "-Oz") == 0) {
      for (const auto& p : ozPassNames()) passes.push_back(p);
    } else if (std::strcmp(a, "-O3") == 0) {
      for (const auto& p : o3PassNames()) passes.push_back(p);
    } else if (a[0] == '-') {
      if (inject_faults) registerFaultInjectionPasses();
      for (const auto& p : parsePassSequence(a)) passes.push_back(p);
    } else if (file.empty()) {
      file = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (inject_faults) registerFaultInjectionPasses();

  if (selftest) {
    source = kSelfTestProgram;
    if (passes.empty() && train_steps == 0) {
      passes = parsePassSequence("-instcombine -early-cse -simplifycfg");
    }
    run = train_steps == 0;
  } else if (!file.empty()) {
    std::ifstream in(file);
    if (!in.good()) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    return usage(argv[0]);
  }

  std::string err;
  auto m = parseModule(source, &err);
  if (m == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const VerifyResult v0 = verifyModule(*m);
  if (!v0.ok()) {
    std::fprintf(stderr, "input does not verify:\n%s", v0.message().c_str());
    return 1;
  }

  if (train_steps > 0) {
    return runTrainingMode(*m, train_steps, train_actors, inject_faults,
                           verify_actions, static_features, max_ir_growth,
                           checkpoint, checkpoint_every, resume, json, kv);
  }

  bool failed = false;

  if (lint_input) {
    const LintReport r = runLint(*m);
    std::printf("%s", json ? (r.toJson() + "\n").c_str()
                           : r.toText().c_str());
    failed |= r.hasErrors();
  }

  report("before", *m, run);
  if (sandbox) {
    SandboxConfig sc;
    sc.verify = true;
    sc.oracle = oracle;
    if (max_ir_growth > 0.0) sc.max_ir_growth = max_ir_growth;
    const SandboxOutcome out = runActionSandboxed(m, passes, sc);
    if (!out.ok) {
      std::printf("%s\n", json ? out.fault.toJson().c_str()
                               : out.fault.str().c_str());
      failed = true;
    }
  } else if (lint_each || oracle) {
    InstrumentOptions opts;
    opts.verify = true;
    opts.lint = lint_each;
    opts.oracle = oracle;
    PassInstrumentation instr(opts);
    runPassSequence(*m, passes, instr);
    std::printf("%s", json ? (instr.toJson() + "\n").c_str()
                           : instr.toText().c_str());
    failed |= !instr.clean();
  } else {
    runPassSequence(*m, passes);
    const VerifyResult v1 = verifyModule(*m);
    if (!v1.ok()) {
      std::fprintf(stderr, "IR broken after passes:\n%s",
                   v1.message().c_str());
      return 1;
    }
  }
  report("after ", *m, run);
  if (kv) {
    const FingerprintCounts& fc = fingerprintCounts();
    std::printf("fingerprint_walks=%llu\n",
                static_cast<unsigned long long>(fc.walks));
    std::printf("fingerprint_memo_hits=%llu\n",
                static_cast<unsigned long long>(fc.memo_hits));
  }
  if (print_ir) std::printf("\n%s", printModule(*m).c_str());
  return failed ? 1 : 0;
}
