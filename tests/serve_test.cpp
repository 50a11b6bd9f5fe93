/// \file serve_test.cpp
/// Tests for the deadline-aware compile service (DESIGN.md "Serving and
/// graceful degradation"): Deadline/DeadlineScope semantics and their
/// propagation into the fuel hooks and fault sandbox, the circuit-breaker
/// state machine (driven with explicit time points, no sleeping), the
/// mask-aware applyPolicy fault surfacing, the CompileService degradation
/// ladder and admission control, and a multi-threaded stress run with
/// fault-injection actions and randomized deadlines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "faults/injection.h"
#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lint/oracle.h"
#include "passes/pass.h"
#include "serve/circuit_breaker.h"
#include "serve/oz_memo.h"
#include "serve/service.h"
#include "support/deadline.h"
#include "support/fuel.h"
#include "support/rng.h"
#include "target/size_model.h"
#include "workloads/generator.h"

namespace posetrl {
namespace {

using std::chrono::milliseconds;

// --- Deadline -------------------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.isNever());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
  EXPECT_GT(d.remainingMillis(), 1'000'000'000ll);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  const Deadline d = Deadline::afterMillis(-10);
  EXPECT_FALSE(d.isNever());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::zero());
  EXPECT_EQ(d.remainingMillis(), 0);
}

TEST(DeadlineTest, FutureDeadlineNotExpiredYet) {
  const Deadline d = Deadline::afterMillis(60'000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remainingMillis(), 30'000);
  EXPECT_LE(d.remainingMillis(), 60'000);
}

TEST(DeadlineTest, ExpiredIsMonotoneInTime) {
  const auto now = Deadline::Clock::now();
  const Deadline d = Deadline::at(now + milliseconds(100));
  EXPECT_FALSE(d.expired(now));
  EXPECT_FALSE(d.expired(now + milliseconds(99)));
  EXPECT_TRUE(d.expired(now + milliseconds(100)));
  EXPECT_TRUE(d.expired(now + milliseconds(101)));
}

TEST(DeadlineTest, EarlierPicksTighter) {
  const auto now = Deadline::Clock::now();
  const Deadline a = Deadline::at(now + milliseconds(50));
  const Deadline b = Deadline::at(now + milliseconds(80));
  EXPECT_EQ(Deadline::earlier(a, b).when(), a.when());
  EXPECT_EQ(Deadline::earlier(b, a).when(), a.when());
  EXPECT_EQ(Deadline::earlier(a, Deadline::never()).when(), a.when());
  EXPECT_TRUE(Deadline::earlier(Deadline::never(), Deadline::never()).isNever());
}

TEST(DeadlineTest, FractionSplitsRemainingBudget) {
  const auto now = Deadline::Clock::now();
  const Deadline d = Deadline::at(now + milliseconds(100));
  const Deadline head = d.fractionFromNow(0.6, now);
  EXPECT_FALSE(head.isNever());
  EXPECT_EQ(head.when(), now + milliseconds(60));
  EXPECT_TRUE(Deadline::never().fractionFromNow(0.5, now).isNever());
  // Fraction clamps instead of extrapolating.
  EXPECT_EQ(d.fractionFromNow(2.0, now).when(), d.when());
}

TEST(DeadlineScopeTest, PollThrowsOnceExpired) {
  EXPECT_NO_THROW(DeadlineScope::poll());  // no scope armed
  {
    DeadlineScope scope(Deadline::afterMillis(60'000));
    EXPECT_TRUE(DeadlineScope::active());
    EXPECT_NO_THROW(DeadlineScope::poll());
  }
  {
    DeadlineScope scope(Deadline::afterMillis(-1));
    EXPECT_THROW(DeadlineScope::poll(), DeadlineExpiredError);
  }
  EXPECT_FALSE(DeadlineScope::active());
}

TEST(DeadlineScopeTest, NestedScopeKeepsTighterOuterDeadline) {
  DeadlineScope outer(Deadline::afterMillis(-1));
  // A generous inner deadline cannot loosen the already-expired outer one.
  DeadlineScope inner(Deadline::afterMillis(60'000));
  EXPECT_THROW(DeadlineScope::poll(), DeadlineExpiredError);
}

TEST(DeadlineScopeTest, FuelHookPollsDeadline) {
  // FuelScope::consume throttles deadline polls; a few thousand calls must
  // surface the expiry even with no fuel budget armed.
  DeadlineScope scope(Deadline::afterMillis(-1));
  EXPECT_THROW(
      {
        for (int i = 0; i < 4096; ++i) FuelScope::consume();
      },
      DeadlineExpiredError);
}

// --- Sandbox deadline containment ----------------------------------------

std::unique_ptr<Module> tinyProgram(std::uint64_t seed = 42) {
  ProgramSpec spec;
  spec.seed = seed;
  spec.kernels = 2;
  return generateProgram(spec);
}

TEST(SandboxDeadlineTest, ExpiredDeadlineRollsBackWithReport) {
  auto m = tinyProgram();
  const std::string before = printModule(*m);
  SandboxConfig sc;
  sc.deadline = Deadline::afterMillis(-5);
  const SandboxOutcome out =
      runActionSandboxed(m, {"simplifycfg", "dce"}, sc);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.fault.kind, FaultKind::DeadlineExpired);
  EXPECT_EQ(out.fault.pass_step, 1u);
  EXPECT_EQ(printModule(*m), before);  // byte-identical rollback
}

TEST(SandboxDeadlineTest, WallClockCutsHangEvenWithUnlimitedFuel) {
  registerFaultInjectionPasses();
  auto m = tinyProgram();
  SandboxConfig sc;
  // Fuel budget far beyond what the deadline allows: only the wall clock
  // can stop the spin.
  sc.pass_fuel = ~0ull / 2;
  sc.deadline = Deadline::afterMillis(50);
  const auto t0 = Deadline::Clock::now();
  const SandboxOutcome out = runActionSandboxed(m, {"fault-hang"}, sc);
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(Deadline::Clock::now() - t0);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.fault.kind, FaultKind::DeadlineExpired);
  EXPECT_LT(elapsed.count(), 10'000);  // cut promptly, not by ctest timeout
}

TEST(EnvDeadlineTest, DeadlineFaultDoesNotQuarantine) {
  auto program = tinyProgram();
  EnvConfig cfg;
  cfg.episode_length = 3;
  cfg.sandbox.deadline = Deadline::afterMillis(-5);
  PhaseOrderEnv env(*program, manualSubSequences(), cfg);
  env.reset();
  const PhaseOrderEnv::StepResult sr = env.step(0);
  ASSERT_TRUE(sr.faulted);
  EXPECT_EQ(sr.fault.kind, FaultKind::DeadlineExpired);
  EXPECT_EQ(env.quarantine().faultCount(0), 0u);
  EXPECT_FALSE(env.quarantine().quarantined(0));
  EXPECT_EQ(env.faultCount(), 1u);
}

// --- Concurrent cloning of a shared module ---------------------------------

TEST(ConcurrentCloneTest, ManyThreadsCloneOneModule) {
  // The serving layer clones one shared request module from several workers
  // at once (env construction, -Oz rung, reaper). Cloning must therefore be
  // a pure read of the source: this used to race on the source's use lists
  // because clones transiently registered as users of source operands.
  auto program = tinyProgram(77);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto clone = cloneModule(*program);
        if (!verifyModule(*clone).ok()) ok = false;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok);
  // The source survives untouched, use-def bookkeeping included.
  EXPECT_TRUE(verifyModule(*program).ok());
}

// --- applyPolicy fault surfacing and quarantine masking -------------------

TEST(PolicyFaultTest, RolloutSurfacesFaultReports) {
  registerFaultInjectionPasses();
  auto program = tinyProgram();
  const std::string before = printModule(*program);
  // A single always-faulting action: greedy has no choice, and the
  // quarantine must keep it selectable (never mask the last action).
  std::vector<SubSequence> actions{{1, {"fault-throw"}}};
  EnvConfig cfg;
  cfg.episode_length = 4;
  DqnConfig acfg;
  acfg.num_actions = 1;
  DoubleDqn agent(acfg);
  const PolicyRollout rollout = applyPolicy(agent, *program, actions, cfg);
  EXPECT_EQ(rollout.action_sequence.size(), 4u);
  ASSERT_EQ(rollout.steps.size(), 4u);
  EXPECT_EQ(rollout.faults, 4u);
  for (const PolicyStep& step : rollout.steps) {
    EXPECT_TRUE(step.faulted);
    EXPECT_EQ(step.fault.kind, FaultKind::PassException);
    EXPECT_EQ(step.fault.pass, "fault-throw");
  }
  EXPECT_EQ(rollout.quarantined, 0u);  // the sole action stays available
  ASSERT_NE(rollout.optimized, nullptr);
  EXPECT_EQ(printModule(*rollout.optimized), before);  // every step rolled back
}

TEST(PolicyFaultTest, QuarantineMaskRoutesAroundFaultingAction) {
  registerFaultInjectionPasses();
  auto program = tinyProgram();
  std::vector<SubSequence> actions{{1, {"fault-throw"}}, {2, {"dce"}}};
  EnvConfig cfg;
  cfg.episode_length = 8;
  cfg.quarantine_threshold = 2;
  DqnConfig acfg;
  acfg.num_actions = 2;
  DoubleDqn agent(acfg);
  const PolicyRollout rollout = applyPolicy(agent, *program, actions, cfg);
  // Whatever the (deterministic) argmax starts on, the faulting action can
  // be chosen at most `quarantine_threshold` times before the mask blocks
  // it and the next-best Q takes over.
  std::size_t faulting_picks = 0;
  for (std::size_t a : rollout.action_sequence) {
    if (a == 0) ++faulting_picks;
  }
  EXPECT_LE(faulting_picks, 2u);
  EXPECT_EQ(rollout.faults, faulting_picks);
  if (faulting_picks == 2) {
    EXPECT_EQ(rollout.quarantined, 1u);
  }
  const auto vr = verifyModule(*rollout.optimized);
  EXPECT_TRUE(vr.ok()) << vr.message();
}

// --- Circuit breaker state machine ----------------------------------------

CircuitBreakerConfig breakerConfig() {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.open_cooldown = milliseconds(100);
  cfg.close_after_successes = 1;
  return cfg;
}

TEST(CircuitBreakerTest, ClosedToOpenAfterThreshold) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  EXPECT_EQ(b.state(t0), BreakerState::Closed);
  EXPECT_TRUE(b.tryAcquire(t0));
  b.recordFailure(t0);
  EXPECT_EQ(b.state(t0), BreakerState::Closed);
  b.recordFailure(t0);
  EXPECT_EQ(b.state(t0), BreakerState::Open);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.tryAcquire(t0));
  EXPECT_TRUE(b.blocked(t0));
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.recordFailure(t0);
  b.recordSuccess(t0);
  b.recordFailure(t0);
  EXPECT_EQ(b.state(t0), BreakerState::Closed);  // never two in a row
  EXPECT_EQ(b.trips(), 0u);
}

TEST(CircuitBreakerTest, OpenToHalfOpenAfterCooldownSingleProbe) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.recordFailure(t0);
  b.recordFailure(t0);
  EXPECT_EQ(b.state(t0 + milliseconds(99)), BreakerState::Open);
  EXPECT_EQ(b.state(t0 + milliseconds(100)), BreakerState::HalfOpen);
  // Exactly one probe may proceed.
  EXPECT_TRUE(b.tryAcquire(t0 + milliseconds(100)));
  EXPECT_FALSE(b.tryAcquire(t0 + milliseconds(101)));
  EXPECT_TRUE(b.blocked(t0 + milliseconds(101)));
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessCloses) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.recordFailure(t0);
  b.recordFailure(t0);
  const auto t1 = t0 + milliseconds(150);
  EXPECT_TRUE(b.tryAcquire(t1));
  b.recordSuccess(t1);
  EXPECT_EQ(b.state(t1), BreakerState::Closed);
  EXPECT_TRUE(b.tryAcquire(t1));
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.recordFailure(t0);
  b.recordFailure(t0);
  const auto t1 = t0 + milliseconds(150);
  EXPECT_TRUE(b.tryAcquire(t1));
  b.recordFailure(t1);
  EXPECT_EQ(b.state(t1), BreakerState::Open);
  EXPECT_EQ(b.trips(), 2u);
  EXPECT_EQ(b.state(t1 + milliseconds(99)), BreakerState::Open);
  EXPECT_EQ(b.state(t1 + milliseconds(100)), BreakerState::HalfOpen);
}

TEST(CircuitBreakerTest, ReleaseFreesHalfOpenProbeSlotWithoutVerdict) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.recordFailure(t0);
  b.recordFailure(t0);
  const auto t1 = t0 + milliseconds(150);
  EXPECT_TRUE(b.tryAcquire(t1));
  // The probe's attempt was abandoned (e.g. deadline expired mid-step):
  // release must free the slot so the action is not masked forever...
  b.release(t1);
  EXPECT_FALSE(b.blocked(t1));
  EXPECT_TRUE(b.tryAcquire(t1));
  // ...and must not have counted as a probe success: the breaker is still
  // HalfOpen, and the next real verdict governs the transition.
  b.recordFailure(t1);
  EXPECT_EQ(b.state(t1), BreakerState::Open);
  EXPECT_EQ(b.trips(), 2u);
}

TEST(CircuitBreakerTest, ReleaseIsNoOpWhenClosedOrOpen) {
  CircuitBreaker b(breakerConfig());
  const auto t0 = CircuitBreaker::Clock::now();
  b.release(t0);  // closed: nothing to free
  EXPECT_EQ(b.state(t0), BreakerState::Closed);
  EXPECT_TRUE(b.tryAcquire(t0));
  b.recordFailure(t0);
  b.recordFailure(t0);
  b.release(t0);  // open: cooldown still governs recovery
  EXPECT_EQ(b.state(t0), BreakerState::Open);
  EXPECT_FALSE(b.tryAcquire(t0));
}

TEST(BreakerBankTest, MaskReflectsPerActionState) {
  BreakerBank bank(4, breakerConfig());
  const auto t0 = BreakerBank::Clock::now();
  bank.recordFailure(2, t0);
  bank.recordFailure(2, t0);
  const std::vector<bool> mask = bank.blockedMask(t0);
  ASSERT_EQ(mask.size(), 4u);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_FALSE(mask[3]);
  EXPECT_EQ(bank.state(2, t0), BreakerState::Open);
  EXPECT_EQ(bank.totalTrips(), 1u);
}

// --- CompileService --------------------------------------------------------

struct ServeFixture {
  std::vector<std::unique_ptr<Module>> storage;
  std::vector<const Module*> corpus;
  std::vector<SubSequence> actions;
  std::unique_ptr<DoubleDqn> agent;

  explicit ServeFixture(bool inject_faults = false, std::size_t train = 40) {
    for (std::uint64_t seed = 700; seed < 704; ++seed) {
      ProgramSpec spec;
      spec.seed = seed;
      spec.kernels = 2;
      storage.push_back(generateProgram(spec));
      corpus.push_back(storage.back().get());
    }
    actions = manualSubSequences();
    if (inject_faults) {
      registerFaultInjectionPasses();
      int id = static_cast<int>(actions.size());
      actions.push_back({++id, {"fault-throw"}});
      actions.push_back({++id, {"fault-bloat"}});
      actions.push_back({++id, {"fault-hang"}});
      actions.push_back({++id, {"fault-miscompile"}});
    }
    TrainConfig cfg;
    cfg.total_steps = train;
    cfg.env.episode_length = 5;
    cfg.actions = &actions;
    cfg.agent.num_actions = actions.size();
    cfg.agent.seed = 11;
    agent = std::move(trainAgent(corpus, cfg).agent);
  }

  ServeConfig serveConfig() const {
    ServeConfig cfg;
    cfg.env.episode_length = 5;
    cfg.env.verify_actions = true;
    return cfg;
  }
};

TEST(CompileServiceTest, SynchronousRequestLandsOnLadder) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.workers = 1;
  cfg.start_workers = false;  // compile() runs on the caller thread
  CompileService service(*fx.agent, fx.actions, cfg);
  const ServeResult r = service.compile(*fx.corpus[0], Deadline::never());
  EXPECT_EQ(r.status, ServeStatus::Ok);
  ASSERT_NE(r.optimized, nullptr);
  EXPECT_TRUE(r.level == ServiceLevel::FullRollout ||
              r.level == ServiceLevel::BestPrefix ||
              r.level == ServiceLevel::OzPipeline);
  const auto vr = verifyModule(*r.optimized);
  EXPECT_TRUE(vr.ok()) << vr.message();
  // With no deadline pressure the -Oz rung must have run and the response
  // must not be worse than it.
  EXPECT_TRUE(r.oz_verified);
  EXPECT_LE(r.size_bytes, r.oz_size_bytes);
  EXPECT_GT(r.base_size_bytes, 0.0);
  EXPECT_FALSE(r.deadline_expired);
}

TEST(CompileServiceTest, ExpiredDeadlineDegradesToIdentityFast) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.start_workers = false;
  CompileService service(*fx.agent, fx.actions, cfg);
  const ServeResult r =
      service.compile(*fx.corpus[1], Deadline::afterMillis(-10));
  EXPECT_EQ(r.status, ServeStatus::Ok);
  EXPECT_EQ(r.level, ServiceLevel::Identity);
  EXPECT_TRUE(r.deadline_expired);
  ASSERT_NE(r.optimized, nullptr);
  // Identity means identical observable behaviour, trivially.
  EXPECT_EQ(printModule(*r.optimized), printModule(*fx.corpus[1]));
  EXPECT_LT(r.latency_ms, 5'000.0);
}

TEST(CompileServiceTest, FullQueueLoadShedsImmediately) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.queue_capacity = 2;
  cfg.start_workers = false;  // nothing drains the queue yet
  CompileService service(*fx.agent, fx.actions, cfg);
  auto f1 = service.submit(*fx.corpus[0], Deadline::never());
  auto f2 = service.submit(*fx.corpus[1], Deadline::never());
  auto f3 = service.submit(*fx.corpus[2], Deadline::never());
  // The third future resolves immediately with Rejected, without blocking.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServeResult r3 = f3.get();
  EXPECT_EQ(r3.status, ServeStatus::Rejected);
  EXPECT_EQ(r3.optimized, nullptr);
  EXPECT_EQ(service.stats().rejected, 1u);
  // Once workers start, the two admitted requests complete normally.
  service.start();
  const ServeResult r1 = f1.get();
  const ServeResult r2 = f2.get();
  EXPECT_EQ(r1.status, ServeStatus::Ok);
  EXPECT_EQ(r2.status, ServeStatus::Ok);
  ASSERT_NE(r1.optimized, nullptr);
  EXPECT_TRUE(verifyModule(*r1.optimized).ok());
}

TEST(CompileServiceTest, ShutdownResolvesQueuedRequests) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.start_workers = false;
  CompileService service(*fx.agent, fx.actions, cfg);
  auto f1 = service.submit(*fx.corpus[0], Deadline::never());
  service.shutdown();
  const ServeResult r1 = f1.get();
  EXPECT_EQ(r1.status, ServeStatus::ShutDown);
  // Post-shutdown submissions resolve immediately too.
  auto f2 = service.submit(*fx.corpus[1], Deadline::never());
  EXPECT_EQ(f2.get().status, ServeStatus::ShutDown);
}

TEST(CompileServiceTest, ReaperBoundsQueuedExpiredLatency) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.workers = 1;  // force a deep backlog
  cfg.queue_capacity = 64;
  CompileService service(*fx.agent, fx.actions, cfg);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(
        service.submit(*fx.corpus[i % fx.corpus.size()],
                       Deadline::afterMillis(30)));
  }
  for (auto& f : futures) {
    const ServeResult r = f.get();
    if (r.status != ServeStatus::Ok) continue;
    // Without the reaper the tail of this backlog would wait for the single
    // worker (~seconds); with it, expired requests come back promptly.
    EXPECT_LT(r.latency_ms, 2'000.0)
        << "request " << r.request_id << " level "
        << serviceLevelName(r.level);
  }
}

TEST(CompileServiceTest, WorkerPoolMatchesSynchronousCompile) {
  // Workers select actions inline on their own threads; concurrency must
  // not change any decision. Every response from a started 4-worker pool
  // must equal compile() on a never-started service over the same agent.
  ServeFixture fx;
  std::vector<std::unique_ptr<Module>> programs;
  for (std::uint64_t seed = 800; seed < 816; ++seed) {
    ProgramSpec spec;
    spec.seed = seed;
    spec.kernels = 2;
    programs.push_back(generateProgram(spec));
  }
  // Without the -Oz comparison every response is the rollout's own output,
  // so each compared action_sequence is a whole rollout's decisions.
  ServeConfig sync_cfg = fx.serveConfig();
  sync_cfg.verify_against_oz = false;
  sync_cfg.start_workers = false;
  CompileService sync_service(*fx.agent, fx.actions, sync_cfg);
  ServeConfig pool_cfg = sync_cfg;
  pool_cfg.workers = 4;
  pool_cfg.start_workers = true;
  CompileService pool(*fx.agent, fx.actions, pool_cfg);

  std::vector<std::future<ServeResult>> futures;
  for (const auto& program : programs) {
    futures.push_back(pool.submit(*program, Deadline::never()));
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const ServeResult got = futures[i].get();
    const ServeResult want = sync_service.compile(*programs[i],
                                                  Deadline::never());
    ASSERT_EQ(got.status, ServeStatus::Ok);
    ASSERT_EQ(want.status, ServeStatus::Ok);
    EXPECT_EQ(got.level, ServiceLevel::FullRollout) << got.degraded_reason;
    EXPECT_EQ(got.level, want.level) << "program " << i;
    EXPECT_EQ(got.action_sequence, want.action_sequence) << "program " << i;
    EXPECT_EQ(got.size_bytes, want.size_bytes) << "program " << i;
    ASSERT_NE(got.optimized, nullptr);
    ASSERT_NE(want.optimized, nullptr);
    EXPECT_EQ(printModule(*got.optimized), printModule(*want.optimized))
        << "program " << i;
  }
  EXPECT_GT(pool.stats().inferences, 0u);
  EXPECT_EQ(pool.stats().inferences, sync_service.stats().inferences);
}

TEST(CompileServiceStressTest, ConcurrentFaultyRequestsKeepAllGuarantees) {
  ServeFixture fx(/*inject_faults=*/true, /*train=*/30);
  ServeConfig cfg = fx.serveConfig();
  cfg.workers = 4;
  cfg.queue_capacity = 512;
  // Contain injected miscompiles: the oracle runs inside the sandbox, so a
  // behaviour-changing action rolls back instead of reaching the response.
  cfg.env.oracle_actions = true;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cooldown = milliseconds(40);
  CompileService service(*fx.agent, fx.actions, cfg);

  Rng rng(2024);
  struct Pending {
    std::future<ServeResult> future;
    const Module* program;
  };
  std::vector<Pending> pending;
  const std::size_t kRequests = 200;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Module* program = fx.corpus[i % fx.corpus.size()];
    // Mixed load: a quarter unbounded, the rest on tight random deadlines.
    const Deadline deadline = (i % 4 == 0)
                                  ? Deadline::never()
                                  : Deadline::afterMillis(rng.nextInt(5, 250));
    pending.push_back({service.submit(*program, deadline), program});
  }

  std::size_t ok = 0;
  std::size_t by_level[4] = {0, 0, 0, 0};
  for (Pending& p : pending) {
    const ServeResult r = p.future.get();  // every request resolves
    ASSERT_EQ(r.status, ServeStatus::Ok);
    ++ok;
    const int level = static_cast<int>(r.level);
    ASSERT_GE(level, 0);
    ASSERT_LE(level, 3);
    ++by_level[level];
    ASSERT_NE(r.optimized, nullptr);
    const auto vr = verifyModule(*r.optimized);
    EXPECT_TRUE(vr.ok()) << vr.message();
    // Degraded or not, observable behaviour must match the input: faults
    // (including injected miscompiles) may only ever roll back.
    auto input = cloneModule(*p.program);
    const OracleVerdict verdict = MiscompileOracle::diff(*input, *r.optimized);
    EXPECT_TRUE(verdict.equivalent()) << verdict.message();
    if (r.oz_verified) {
      EXPECT_LE(r.size_bytes, r.oz_size_bytes);
    }
  }
  EXPECT_EQ(ok, kRequests);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.submitted, kRequests);
  // The unbounded quarter must never land on Identity: there is always time
  // for at least the -Oz rung.
  EXPECT_GE(by_level[0] + by_level[1] + by_level[2], kRequests / 4);
}

TEST(CompileServiceTest, SharedBreakersTripAcrossRequests) {
  // Single always-faulting action, no retries: each request records exactly
  // one breaker failure, so the service-wide breaker (threshold 2) trips on
  // the second request and masks the action for every later one — unlike
  // the quarantine, which is per-request here and never reaches its
  // threshold.
  registerFaultInjectionPasses();
  auto program = tinyProgram(901);
  std::vector<SubSequence> actions{{1, {"fault-throw"}}};
  DqnConfig acfg;
  acfg.num_actions = 1;
  DoubleDqn agent(acfg);

  ServeConfig cfg;
  cfg.env.episode_length = 4;
  cfg.max_retries = 0;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown = std::chrono::minutes(10);  // stays open
  cfg.start_workers = false;
  CompileService service(agent, actions, cfg);
  std::vector<ServeResult> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(service.compile(*program, Deadline::never()));
    EXPECT_EQ(results.back().status, ServeStatus::Ok);
  }
  EXPECT_EQ(results[0].faults, 1u);
  EXPECT_EQ(results[1].faults, 1u);
  // Requests after the trip never even attempt the action: the mask blocks
  // it up front and they degrade straight to the -Oz rung.
  EXPECT_EQ(results[3].faults, 0u);
  EXPECT_EQ(results[3].level, ServiceLevel::OzPipeline);
  EXPECT_EQ(service.breakers().totalTrips(), 1u);
  EXPECT_TRUE(service.breakers().blockedMask()[0]);
}

// --- -Oz rung --------------------------------------------------------------

TEST(OzRungSandboxTest, FollowsAllThreeEnvSwitches) {
  for (int bits = 0; bits < 8; ++bits) {
    EnvConfig cfg;
    cfg.verify_actions = (bits & 1) != 0;
    cfg.check_contracts = (bits & 2) != 0;
    cfg.oracle_actions = (bits & 4) != 0;
    // The raw sandbox switches disagree; the slaved EnvConfig ones win.
    cfg.sandbox.verify = !cfg.verify_actions;
    cfg.sandbox.contracts = !cfg.check_contracts;
    cfg.sandbox.oracle = !cfg.oracle_actions;
    cfg.sandbox.pass_fuel = 1234;
    const SandboxConfig sc = sandboxConfigFor(cfg);
    EXPECT_EQ(sc.verify, cfg.verify_actions) << bits;
    EXPECT_EQ(sc.contracts, cfg.check_contracts) << bits;
    EXPECT_EQ(sc.oracle, cfg.oracle_actions) << bits;
    EXPECT_EQ(sc.pass_fuel, 1234u);  // budgets pass through untouched
  }
}

/// A service whose rollout never produces a candidate: its one action
/// always faults and has no retries, so every request that completes the
/// -Oz rung returns -Oz's output (OzPipeline), the thing the memo stores.
struct OzOnlyService {
  std::vector<SubSequence> actions{{1, {"fault-throw"}}};
  DoubleDqn agent;
  CompileService service;

  static ServeConfig config() {
    ServeConfig cfg;
    cfg.env.episode_length = 2;
    cfg.max_retries = 0;
    cfg.breaker.failure_threshold = 1'000'000;
    cfg.start_workers = false;
    return cfg;
  }
  static DqnConfig agentConfig() {
    registerFaultInjectionPasses();
    DqnConfig acfg;
    acfg.num_actions = 1;
    return acfg;
  }
  explicit OzOnlyService(const ServeConfig& cfg = config())
      : agent(agentConfig()), service(agent, actions, cfg) {}
};

/// -Oz output of \p program as the rung computes it, and its modeled size.
std::unique_ptr<Module> ozOf(const Module& program, double* size) {
  auto oz = cloneModule(program);
  runPassSequence(*oz, ozPassNames(), /*verify_each=*/false);
  *size = SizeModel(TargetInfo::forArch(TargetArch::X86_64)).objectBytes(*oz);
  return oz;
}

TEST(OzMemoServiceTest, HitIsPrintAndSizeIdenticalToMiss) {
  OzOnlyService s;
  auto program = tinyProgram(501);
  const ServeResult first = s.service.compile(*program, Deadline::never());
  EXPECT_EQ(s.service.stats().oz_memo_bytes, 0u);  // first sighting
  const ServeResult second = s.service.compile(*program, Deadline::never());
  EXPECT_GT(s.service.stats().oz_memo_bytes, 0u);  // admitted on the second
  const ServeResult third = s.service.compile(*program, Deadline::never());
  ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.oz_memo_hits, 1u);
  EXPECT_EQ(stats.oz_memo_misses, 2u);

  for (const ServeResult* r : {&first, &second, &third}) {
    ASSERT_EQ(r->level, ServiceLevel::OzPipeline) << r->degraded_reason;
    ASSERT_TRUE(r->oz_verified);
    ASSERT_NE(r->optimized, nullptr);
    EXPECT_TRUE(verifyModule(*r->optimized).ok());
  }
  const std::string miss_text = printModule(*first.optimized);
  EXPECT_EQ(printModule(*second.optimized), miss_text);
  EXPECT_EQ(printModule(*third.optimized), miss_text);
  EXPECT_EQ(third.size_bytes, first.size_bytes);
  EXPECT_EQ(third.oz_size_bytes, first.oz_size_bytes);
  // Served -Oz output round-trips through the printer and the parser.
  auto reparsed = parseModule(miss_text);
  ASSERT_NE(reparsed, nullptr);
  EXPECT_EQ(printModule(*reparsed), miss_text);

  // A different module object with the same text hits and gets the same
  // output: the rung's output depends on the printed input only.
  auto copy = parseModule(printModule(*program));
  ASSERT_NE(copy, nullptr);
  const ServeResult fourth = s.service.compile(*copy, Deadline::never());
  stats = s.service.stats();
  EXPECT_EQ(stats.oz_memo_hits, 2u);
  ASSERT_NE(fourth.optimized, nullptr);
  EXPECT_EQ(printModule(*fourth.optimized), miss_text);
}

TEST(OzMemoServiceTest, SingleUseTrafficStoresAndPrintsNothing) {
  OzOnlyService s;
  std::vector<std::unique_ptr<Module>> programs;
  for (std::uint64_t seed = 510; seed < 514; ++seed) {
    programs.push_back(tinyProgram(seed));
  }
  const std::uint64_t prints = printModuleCallCount();
  for (const auto& program : programs) {
    const ServeResult r = s.service.compile(*program, Deadline::never());
    EXPECT_EQ(r.level, ServiceLevel::OzPipeline) << r.degraded_reason;
  }
  EXPECT_EQ(printModuleCallCount(), prints);
  const ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.oz_memo_hits, 0u);
  EXPECT_EQ(stats.oz_memo_misses, programs.size());
  EXPECT_EQ(stats.oz_memo_bytes, 0u);
}

TEST(OzMemoTest, ForcedKeyCollisionMisses) {
  auto a = tinyProgram(530);
  auto b = tinyProgram(531);
  ASSERT_NE(printModule(*a), printModule(*b));
  double size_a = 0.0;
  const auto oz_a = ozOf(*a, &size_a);
  const SizeModel size_model(TargetInfo::forArch(TargetArch::X86_64));
  OzMemo memo;
  const std::uint64_t key = 42;  // injected: both programs share one key
  EXPECT_FALSE(memo.lookup(key, *a).admissible);
  EXPECT_TRUE(memo.lookup(key, *a).admissible);
  ASSERT_TRUE(memo.admit(key, *a, *oz_a, size_a, size_model));

  // Same key, different text: a miss, never a's output.
  EXPECT_EQ(memo.lookup(key, *b).hit, nullptr);
  const OzMemo::Probe hit = memo.lookup(key, *a);
  ASSERT_NE(hit.hit, nullptr);
  EXPECT_EQ(hit.hit->output_text, printModule(*oz_a));
  EXPECT_EQ(hit.hit->size_bytes, size_a);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(OzMemoTest, ByteCapEvictsLeastRecentlyUsed) {
  auto a = tinyProgram(540);
  auto b = tinyProgram(541);
  double size_a = 0.0, size_b = 0.0;
  const auto oz_a = ozOf(*a, &size_a);
  const auto oz_b = ozOf(*b, &size_b);
  const std::size_t bytes_a =
      printModule(*a).size() + printModule(*oz_a).size();
  const std::size_t bytes_b =
      printModule(*b).size() + printModule(*oz_b).size();
  const SizeModel size_model(TargetInfo::forArch(TargetArch::X86_64));
  // Room for either entry, not both.
  OzMemo memo(std::max(bytes_a, bytes_b));
  ASSERT_TRUE(memo.admit(1, *a, *oz_a, size_a, size_model));
  EXPECT_EQ(memo.stats().bytes, bytes_a);
  ASSERT_TRUE(memo.admit(2, *b, *oz_b, size_b, size_model));
  EXPECT_EQ(memo.stats().bytes, bytes_b);
  EXPECT_EQ(memo.lookup(1, *a).hit, nullptr);  // evicted
  EXPECT_NE(memo.lookup(2, *b).hit, nullptr);
  // An entry larger than the whole budget is refused outright.
  OzMemo tiny(16);
  EXPECT_FALSE(tiny.admit(1, *a, *oz_a, size_a, size_model));
  EXPECT_EQ(tiny.stats().bytes, 0u);
}

TEST(OzMemoServiceTest, FaultedOrDeadlineCutRungIsNeverStored) {
  {
    ServeConfig cfg = OzOnlyService::config();
    cfg.env.sandbox.pass_fuel = 1;  // every -Oz run exhausts its fuel
    OzOnlyService s(cfg);
    auto program = tinyProgram(550);
    for (int i = 0; i < 3; ++i) {
      const ServeResult r = s.service.compile(*program, Deadline::never());
      EXPECT_FALSE(r.oz_verified);
      EXPECT_EQ(r.level, ServiceLevel::Identity);
    }
    const ServiceStats stats = s.service.stats();
    EXPECT_EQ(stats.oz_memo_misses, 3u);
    EXPECT_EQ(stats.oz_memo_hits, 0u);
    EXPECT_EQ(stats.oz_memo_bytes, 0u);
  }
  {
    // A deadline far shorter than -Oz on a 10-kernel program: the rung is
    // either cut or skipped, and neither may leave an entry behind.
    OzOnlyService s;
    ProgramSpec spec;
    spec.seed = 551;
    spec.kernels = 10;
    auto program = generateProgram(spec);
    for (int i = 0; i < 4; ++i) {
      const ServeResult r = s.service.compile(*program, Deadline::afterMillis(1));
      EXPECT_FALSE(r.oz_verified);
    }
    const ServiceStats stats = s.service.stats();
    EXPECT_EQ(stats.oz_memo_hits, 0u);
    EXPECT_EQ(stats.oz_memo_bytes, 0u);
  }
}

TEST(OzMemoServiceTest, DuplicateNamesAreNeverAdmitted) {
  auto program = tinyProgram(560);
  // Give a second result in one function the name of the first: the module
  // still runs through -Oz, but its text is ambiguous.
  bool renamed = false;
  for (const auto& f : program->functions()) {
    Instruction* first = nullptr;
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->insts()) {
        if (inst->type()->isVoid()) continue;
        if (first == nullptr) {
          first = inst.get();
        } else if (!renamed) {
          inst->setName(first->name());
          renamed = true;
        }
      }
    }
    if (renamed) break;
  }
  ASSERT_TRUE(renamed);
  ASSERT_EQ(parseModule(printModule(*program)), nullptr);

  OzOnlyService s;
  for (int i = 0; i < 3; ++i) {
    const ServeResult r = s.service.compile(*program, Deadline::never());
    EXPECT_EQ(r.level, ServiceLevel::OzPipeline) << r.degraded_reason;
  }
  const ServiceStats stats = s.service.stats();
  EXPECT_EQ(stats.oz_memo_hits, 0u);
  EXPECT_EQ(stats.oz_memo_bytes, 0u);
}

TEST(CompileServiceStressTest, RepeatedProgramsKeepLadderGuarantees) {
  ServeFixture fx;
  ServeConfig cfg = fx.serveConfig();
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  CompileService service(*fx.agent, fx.actions, cfg);
  const SizeModel size_model(TargetInfo::forArch(cfg.env.arch));

  struct Pending {
    std::future<ServeResult> future;
    const Module* program;
  };
  std::vector<Pending> pending;
  const std::size_t kRequests = 48;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Module* program = fx.corpus[i % fx.corpus.size()];
    pending.push_back({service.submit(*program, Deadline::never()), program});
  }
  for (Pending& p : pending) {
    const ServeResult r = p.future.get();
    ASSERT_EQ(r.status, ServeStatus::Ok);
    ASSERT_NE(r.level, ServiceLevel::Identity) << r.degraded_reason;
    ASSERT_TRUE(r.oz_verified);
    ASSERT_NE(r.optimized, nullptr);
    const auto vr = verifyModule(*r.optimized);
    EXPECT_TRUE(vr.ok()) << vr.message();
    EXPECT_LE(r.size_bytes, r.oz_size_bytes);
    EXPECT_EQ(r.size_bytes, size_model.objectBytes(*r.optimized));
    auto input = cloneModule(*p.program);
    const OracleVerdict verdict = MiscompileOracle::diff(*input, *r.optimized);
    EXPECT_TRUE(verdict.equivalent()) << verdict.message();
    if (r.level == ServiceLevel::OzPipeline) {
      const std::string text = printModule(*r.optimized);
      auto reparsed = parseModule(text);
      ASSERT_NE(reparsed, nullptr);
      EXPECT_EQ(printModule(*reparsed), text);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.oz_memo_hits + stats.oz_memo_misses, kRequests);
  EXPECT_GT(stats.oz_memo_hits, 0u);
}

}  // namespace
}  // namespace posetrl
