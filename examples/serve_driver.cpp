/// \file serve_driver.cpp
/// Stress/demo driver for the deadline-aware compile service (DESIGN.md
/// "Serving and graceful degradation" / "Online learning and policy
/// lifecycle"). Generates a synthetic corpus, trains a small agent, then
/// fires concurrent requests with randomized deadlines at a CompileService
/// and validates the service's invariants from outside:
///
///   - every submitted request resolves with a structured ServeResult;
///   - every Ok response carries a valid ladder level, a verifier-clean
///     module, and (when --oracle) unchanged observable behaviour;
///   - every oz-verified response is no worse than stock -Oz by modeled
///     size;
///   - responses come back within deadline + grace;
///   - with --online, every Ok response names the policy snapshot version
///     it was served on.
///
/// Online-learning fault drills (tools/check.sh online smoke):
///   --online DIR          attach a WAL-backed online learner rooted at DIR;
///                         a restart against the same DIR replays the WAL
///                         and resumes the last promoted snapshot.
///   --kill-after N        simulate kill -9: _Exit(137) mid-run after N
///                         responses resolve (in-flight work and all).
///   --force-bad-candidate N  after N responses, hot-swap in a deliberately
///                         broken policy (constant Q pinned to a faulting
///                         action, canary bypassed) and expect the watchdog
///                         to roll it back automatically.
///   --io-fail-from N / --io-fail-count N / --io-fail-errno eio|enospc
///                         chaos drill (tools/check.sh --chaos): once
///                         serving starts, fail that window of durability
///                         syscalls. Requests must keep succeeding while
///                         ingestion degrades (`durability_degraded`,
///                         `ingest_dropped` in --kv) and re-arm after the
///                         window passes (`durability_rearms`).
///   --durability-retry-ms N  initial re-arm backoff of the online learner.
///
/// Exit status is non-zero when any invariant is violated. --kv prints a
/// stable key=value summary for scripts (tools/check.sh serve smoke).
///
/// Usage:
///   serve_driver [--workers N] [--requests N] [--queue N]
///                [--min-deadline-ms N] [--max-deadline-ms N] [--grace-ms N]
///                [--train N] [--inject-faults] [--oracle] [--seed S] [--kv]
///                [--online DIR] [--kill-after N] [--force-bad-candidate N]
///                [--breaker-threshold N] [--promote-every N]
///                [--io-fail-from N] [--io-fail-count N]
///                [--io-fail-errno eio|enospc] [--durability-retry-ms N]

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "faults/injection.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "lint/oracle.h"
#include "online/online_learner.h"
#include "serve/service.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/stats.h"
#include "workloads/generator.h"

using namespace posetrl;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--requests N] [--queue N]\n"
               "          [--min-deadline-ms N] [--max-deadline-ms N]\n"
               "          [--grace-ms N] [--train N] [--inject-faults]\n"
               "          [--oracle] [--seed S] [--kv] [--online DIR]\n"
               "          [--kill-after N] [--force-bad-candidate N]\n"
               "          [--breaker-threshold N] [--promote-every N]\n"
               "          [--io-fail-from N] [--io-fail-count N]\n"
               "          [--io-fail-errno eio|enospc]\n"
               "          [--durability-retry-ms N]\n",
               prog);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 4;
  std::size_t requests = 64;
  std::size_t queue_capacity = 256;
  std::int64_t min_deadline_ms = 50;
  std::int64_t max_deadline_ms = 400;
  std::int64_t grace_ms = 500;
  std::size_t train_steps = 300;
  bool inject_faults = false;
  bool oracle = false;
  bool kv = false;
  std::uint64_t seed = 17;
  std::string online_dir;
  std::size_t kill_after = 0;
  std::size_t force_bad_after = 0;
  std::size_t breaker_threshold = 3;
  std::size_t promote_every = 8;
  // Chaos: fail shim ops [io_fail_from, io_fail_from + io_fail_count) with
  // io_fail_errno once serving starts — a disk that breaks mid-run and
  // heals. The serve path must degrade (no failed requests) and re-arm.
  std::size_t io_fail_from = 0;
  std::size_t io_fail_count = 0;
  int io_fail_errno = EIO;
  std::size_t durability_retry_ms = 100;

  const auto nextArg = [&](int& i) -> const char* {
    if (i + 1 >= argc) std::exit(usage(argv[0]));
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--workers") == 0) {
      workers = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--requests") == 0) {
      requests = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--queue") == 0) {
      queue_capacity = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--min-deadline-ms") == 0) {
      min_deadline_ms = std::atoll(nextArg(i));
    } else if (std::strcmp(a, "--max-deadline-ms") == 0) {
      max_deadline_ms = std::atoll(nextArg(i));
    } else if (std::strcmp(a, "--grace-ms") == 0) {
      grace_ms = std::atoll(nextArg(i));
    } else if (std::strcmp(a, "--train") == 0) {
      train_steps = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--inject-faults") == 0) {
      inject_faults = true;
    } else if (std::strcmp(a, "--oracle") == 0) {
      oracle = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--kv") == 0) {
      kv = true;
    } else if (std::strcmp(a, "--online") == 0) {
      online_dir = nextArg(i);
    } else if (std::strcmp(a, "--kill-after") == 0) {
      kill_after = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--force-bad-candidate") == 0) {
      force_bad_after = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--breaker-threshold") == 0) {
      breaker_threshold = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--promote-every") == 0) {
      promote_every = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--io-fail-from") == 0) {
      io_fail_from = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--io-fail-count") == 0) {
      io_fail_count = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else if (std::strcmp(a, "--io-fail-errno") == 0) {
      const char* name = nextArg(i);
      if (std::strcmp(name, "eio") == 0) {
        io_fail_errno = EIO;
      } else if (std::strcmp(name, "enospc") == 0) {
        io_fail_errno = ENOSPC;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--durability-retry-ms") == 0) {
      durability_retry_ms = static_cast<std::size_t>(std::atoll(nextArg(i)));
    } else {
      return usage(argv[0]);
    }
  }
  if (max_deadline_ms < min_deadline_ms) max_deadline_ms = min_deadline_ms;
  if (force_bad_after > 0 && (online_dir.empty() || !inject_faults)) {
    std::fprintf(stderr,
                 "--force-bad-candidate needs --online and --inject-faults\n");
    return 1;
  }

  // --- corpus ---
  std::vector<std::unique_ptr<Module>> corpus;
  for (int i = 0; i < 6; ++i) {
    ProgramSpec spec;
    spec.name = "serve_prog_" + std::to_string(i);
    spec.seed = seed * 100 + static_cast<std::uint64_t>(i);
    spec.kernels = 3 + i % 3;
    corpus.push_back(generateProgram(spec));
  }
  std::vector<const Module*> corpus_ptrs;
  for (const auto& m : corpus) corpus_ptrs.push_back(m.get());

  // --- action space + training ---
  std::vector<SubSequence> actions = manualSubSequences();
  std::size_t first_fault_action = actions.size();
  if (inject_faults) {
    registerFaultInjectionPasses();
    int id = static_cast<int>(actions.size());
    actions.push_back({++id, {"fault-throw"}});
    actions.push_back({++id, {"fault-bloat"}});
    actions.push_back({++id, {"fault-hang"}});
    if (oracle) actions.push_back({++id, {"fault-miscompile"}});
  }
  TrainConfig tcfg;
  tcfg.total_steps = train_steps;
  tcfg.seed = seed;
  tcfg.actions = &actions;
  tcfg.agent.num_actions = actions.size();
  tcfg.agent.seed = seed;
  const TrainResult trained = trainAgent(corpus_ptrs, tcfg);

  // --- online learner (before the service: it must outlive it) ---
  std::unique_ptr<OnlineLearner> online;
  if (!online_dir.empty()) {
    OnlineLearnerConfig ocfg;
    ocfg.dir = online_dir;
    ocfg.env = tcfg.env;
    ocfg.promote_every = promote_every;
    ocfg.seed = seed;
    ocfg.durability_retry_initial_ms = durability_retry_ms;
    if (force_bad_after > 0) {
      // Aggressive watchdog so the forced-bad drill breaches within a short
      // run: a handful of fault-heavy responses on the bad version suffice.
      ocfg.watchdog.window = 8;
      ocfg.watchdog.min_observations = 4;
      ocfg.watchdog.max_fault_rate = 0.5;
      ocfg.watchdog.max_degraded_fraction = 0.9;
    }
    online = std::make_unique<OnlineLearner>(*trained.agent, actions, ocfg);
    // Pin the first two corpus programs as the held-out canary set.
    for (std::size_t i = 0; i < 2 && i < corpus_ptrs.size(); ++i) {
      online->addHoldoutModule(*corpus_ptrs[i]);
    }
    online->start();
  }

  // --- service ---
  ServeConfig scfg;
  scfg.workers = workers;
  scfg.queue_capacity = queue_capacity;
  scfg.seed = seed;
  scfg.env = tcfg.env;
  scfg.env.verify_actions = true;  // degraded outputs must stay verifier-clean
  scfg.env.oracle_actions = oracle;
  // Faulting actions should trip breakers quickly in a short stress run
  // (the online rollback drill sets this huge so faults reach the watchdog
  // instead of being masked service-wide by the breakers).
  scfg.breaker.failure_threshold = breaker_threshold;
  scfg.breaker.open_cooldown = std::chrono::milliseconds(50);
  scfg.online = online.get();
  CompileService service(*trained.agent, actions, scfg);

  // --- chaos: break the disk under live traffic ---
  // Installed only now, after setup I/O (training saves, learner recovery)
  // has run, so the op-count window lands on serving-path appends.
  std::unique_ptr<io::FaultWindowPolicy> chaos;
  if (io_fail_count > 0) {
    chaos = std::make_unique<io::FaultWindowPolicy>(io_fail_from,
                                                    io_fail_count,
                                                    io_fail_errno);
    io::setPolicy(chaos.get());
  }

  // --- fire requests with randomized deadlines ---
  Rng rng(seed ^ 0xdeadbeef);
  struct Pending {
    std::future<ServeResult> future;
    const Module* program;
    std::int64_t deadline_ms;
  };
  std::size_t next_request = 0;
  const auto submitBatch = [&](std::size_t n) {
    std::vector<Pending> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i, ++next_request) {
      const Module* program = corpus_ptrs[next_request % corpus_ptrs.size()];
      const std::int64_t ms = rng.nextInt(min_deadline_ms, max_deadline_ms);
      batch.push_back(
          {service.submit(*program, Deadline::afterMillis(ms)), program, ms});
    }
    return batch;
  };

  // --- collect + validate ---
  std::size_t ok = 0, rejected = 0, shut_down = 0;
  std::size_t violations = 0;
  std::size_t resolved = 0;
  double max_overshoot_ms = 0.0;
  std::size_t level_counts[4] = {0, 0, 0, 0};
  std::vector<double> latencies;
  latencies.reserve(requests);
  const auto violation = [&](std::uint64_t id, const std::string& what) {
    ++violations;
    std::fprintf(stderr, "VIOLATION request %llu: %s\n",
                 static_cast<unsigned long long>(id), what.c_str());
  };

  const auto collect = [&](std::vector<Pending>& batch) {
    for (Pending& p : batch) {
      ServeResult r = p.future.get();
      ++resolved;
      if (kill_after > 0 && resolved >= kill_after) {
        // Simulated kill -9 mid-run: no destructors, no WAL flush beyond
        // what already hit the page cache, workers still in flight. The
        // recovery run against the same --online DIR must rebuild state.
        std::fprintf(stderr, "[serve] simulating crash after %zu responses\n",
                     resolved);
        std::_Exit(137);
      }
      switch (r.status) {
        case ServeStatus::Rejected: ++rejected; continue;
        case ServeStatus::ShutDown: ++shut_down; continue;
        case ServeStatus::Ok: ++ok; break;
      }
      const int level = static_cast<int>(r.level);
      if (level < 0 || level > 3) {
        violation(r.request_id, "invalid ladder level");
        continue;
      }
      ++level_counts[level];
      latencies.push_back(r.latency_ms);
      if (r.optimized == nullptr) {
        violation(r.request_id, "ok response without a module");
        continue;
      }
      if (online != nullptr && r.policy_version == 0) {
        violation(r.request_id, "ok response without a policy version");
      }
      const VerifyResult v = verifyModule(*r.optimized);
      if (!v.ok()) {
        violation(r.request_id, std::string("response does not verify: ") +
                                    v.message());
      }
      if (oracle) {
        std::unique_ptr<Module> input = cloneModule(*p.program);
        const OracleVerdict verdict =
            MiscompileOracle::diff(*input, *r.optimized);
        if (!verdict.equivalent()) {
          violation(r.request_id,
                    "behaviour changed vs input: " + verdict.message());
        }
      }
      if (r.oz_verified && r.size_bytes > r.oz_size_bytes) {
        violation(r.request_id, "response worse than stock -Oz (size " +
                                    std::to_string(r.size_bytes) + " vs " +
                                    std::to_string(r.oz_size_bytes) + ")");
      }
      const double overshoot =
          r.latency_ms - static_cast<double>(p.deadline_ms);
      max_overshoot_ms = std::max(max_overshoot_ms, overshoot);
      if (overshoot > static_cast<double>(grace_ms)) {
        violation(r.request_id,
                  "latency " + std::to_string(r.latency_ms) + "ms exceeds " +
                      std::to_string(p.deadline_ms) + "ms deadline + " +
                      std::to_string(grace_ms) + "ms grace");
      }
    }
  };

  const auto serve_t0 = std::chrono::steady_clock::now();
  if (force_bad_after > 0 && force_bad_after < requests) {
    // Phase 1: healthy traffic, then hot-swap in a known-bad policy.
    std::vector<Pending> phase1 = submitBatch(force_bad_after);
    collect(phase1);
    // Constant Q pinned to the fault-injecting action: every greedy pick
    // under this policy faults. Promoted without canary gating (the gate
    // would reject it), so only the watchdog stands between it and traffic.
    Mlp bad = trained.agent->onlineNet();
    std::vector<double> q(actions.size(), 0.0);
    q[first_fault_action] = 1e6;
    bad.setConstantOutput(q);
    const std::uint64_t bad_version = online->forcePromote(std::move(bad));
    std::fprintf(stderr, "[serve] force-promoted bad policy v%llu\n",
                 static_cast<unsigned long long>(bad_version));
    std::vector<Pending> phase2 = submitBatch(requests - force_bad_after);
    collect(phase2);
  } else {
    std::vector<Pending> all = submitBatch(requests);
    collect(all);
  }
  const double serve_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_t0)
          .count();
  service.shutdown();
  if (chaos != nullptr) io::setPolicy(nullptr);
  const ServiceStats stats = service.stats();
  const std::size_t trips = service.breakers().totalTrips();
  const double p50 = percentile(latencies, 50.0);
  const double p99 = percentile(latencies, 99.0);

  OnlineStats ostats;
  TrajectoryWal::Stats wstats;
  SnapshotRegistry::Stats rstats;
  if (online != nullptr) {
    online->stop();
    ostats = online->stats();
    wstats = online->walStats();
    rstats = online->registryStats();
  }

  if (kv) {
    std::printf("requests=%zu\n", requests);
    std::printf("ok=%zu\n", ok);
    std::printf("rejected=%zu\n", rejected);
    std::printf("shut_down=%zu\n", shut_down);
    std::printf("level_full=%zu\n", level_counts[0]);
    std::printf("level_prefix=%zu\n", level_counts[1]);
    std::printf("level_oz=%zu\n", level_counts[2]);
    std::printf("level_identity=%zu\n", level_counts[3]);
    std::printf("faults=%zu\n", stats.faults);
    std::printf("retries=%zu\n", stats.retries);
    std::printf("breaker_trips=%zu\n", trips);
    std::printf("deadline_expired=%zu\n", stats.deadline_expired);
    std::printf("max_latency_ms=%.1f\n", stats.max_latency_ms);
    std::printf("latency_p50_ms=%.1f\n", p50);
    std::printf("latency_p99_ms=%.1f\n", p99);
    std::printf("max_overshoot_ms=%.1f\n", max_overshoot_ms);
    std::printf("serve_requests_per_sec=%.2f\n",
                serve_sec > 0.0 ? static_cast<double>(resolved) / serve_sec
                                : 0.0);
    std::printf("inferences=%zu\n", stats.inferences);
    std::printf("oz_memo_hits=%zu\n", stats.oz_memo_hits);
    std::printf("oz_memo_misses=%zu\n", stats.oz_memo_misses);
    std::printf("oz_memo_bytes=%zu\n", stats.oz_memo_bytes);
    if (online != nullptr) {
      std::printf("policy_version=%llu\n",
                  static_cast<unsigned long long>(ostats.current_version));
      std::printf("online_promotions=%zu\n", ostats.promotions);
      std::printf("online_rejections=%zu\n", ostats.rejections);
      std::printf("online_rollbacks=%zu\n", ostats.rollbacks);
      std::printf("online_graduations=%zu\n", ostats.graduations);
      std::printf("online_recovered_records=%zu\n", ostats.recovered_records);
      std::printf("online_ingested=%zu\n", ostats.ingested_episodes);
      std::printf("wal_records=%zu\n", wstats.records);
      std::printf("wal_segments=%zu\n", wstats.segments_created);
      std::printf("wal_syncs=%zu\n", wstats.syncs);
      std::printf("wal_append_us=%.1f\n",
                  wstats.records > 0
                      ? wstats.append_us / static_cast<double>(wstats.records)
                      : 0.0);
      std::printf("swap_latency_us=%.1f\n", rstats.last_publish_us);
      std::printf("wal_failures=%zu\n", ostats.wal_failures);
      std::printf("ingest_dropped=%zu\n", ostats.ingest_dropped);
      std::printf("durability_rearms=%zu\n", ostats.durability_rearms);
      std::printf("durability_degraded=%d\n",
                  ostats.durability_degraded ? 1 : 0);
      std::printf("snapshot_persist_failures=%zu\n",
                  ostats.snapshot_persist_failures);
      std::printf("wal_gc_segments=%zu\n", wstats.gc_removed_segments);
      std::printf("wal_repaired_bytes=%zu\n", wstats.repaired_torn_bytes);
    }
    if (chaos != nullptr) {
      std::printf("io_injected_failures=%zu\n", chaos->injected());
      std::printf("io_fault_window_healed=%d\n", chaos->healed() ? 1 : 0);
    }
    std::printf("violations=%zu\n", violations);
  } else {
    std::printf(
        "[serve] %zu requests -> ok=%zu rejected=%zu shut_down=%zu\n"
        "[serve] ladder: full=%zu prefix=%zu oz=%zu identity=%zu\n"
        "[serve] faults=%zu retries=%zu breaker_trips=%zu "
        "deadline_expired=%zu\n"
        "[serve] latency p50 %.1fms p99 %.1fms max %.1fms, "
        "max overshoot %.1fms, violations=%zu\n"
        "[serve] inferences=%zu\n"
        "[serve] -Oz memo: hits=%zu misses=%zu bytes=%zu\n",
        requests, ok, rejected, shut_down, level_counts[0], level_counts[1],
        level_counts[2], level_counts[3], stats.faults, stats.retries, trips,
        stats.deadline_expired, p50, p99, stats.max_latency_ms,
        max_overshoot_ms, violations, stats.inferences, stats.oz_memo_hits,
        stats.oz_memo_misses, stats.oz_memo_bytes);
    if (online != nullptr) {
      std::printf(
          "[serve] online: v%llu promotions=%zu rejections=%zu "
          "rollbacks=%zu graduations=%zu recovered=%zu wal_records=%zu\n",
          static_cast<unsigned long long>(ostats.current_version),
          ostats.promotions, ostats.rejections, ostats.rollbacks,
          ostats.graduations, ostats.recovered_records, wstats.records);
    }
  }
  return violations == 0 ? 0 : 1;
}
