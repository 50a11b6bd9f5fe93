/// \file workloads.cpp
/// The four workloads (README.md has why each exists and what it should
/// and should not move). Every workload sets up several times (setUp) and
/// keeps the last set-up; an untraced run then reports end-to-end metrics
/// and a traced run (Options::trace) reports per-layer ones.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "core/policy.h"
#include "ir/module.h"
#include "online/online_learner.h"
#include "replay.h"
#include "serve/service.h"
#include "support/rng.h"
#include "target/size_model.h"
#include "trace.h"

using namespace posetrl;

namespace e2e {

namespace {

/// Reference-agent training budget (default TrainConfig otherwise).
std::size_t referenceSteps(const Options& o) { return o.smoke ? 150 : 4000; }

/// Wall time a traced run spends replaying steps for attribution.
double replayBudget(const Options& o) { return o.smoke ? 0.0 : 3.0; }

double cores() {
  return static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupSeconds in all; setup_s is the median. A set-up takes 0.2-0.8 s,
/// so one alone would read whatever the machine did in that moment.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;

/// Builds the workload's state repeatedly, tearing the previous one down
/// untimed first, and returns the last; \p setup_s gets the median build
/// time. \p make returns a unique_ptr so members tear down in reverse
/// declaration order.
template <typename F>
auto setUp(F&& make, double& setup_s, bool smoke) {
  decltype(make()) state;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < (smoke ? 1u : kSetupReps) ||
         (!smoke && total < kSetupSeconds)) {
    state.reset();
    const auto t0 = Clock::now();
    auto fresh = make();
    times.push_back(secondsSince(t0));
    total += times.back();
    state = std::move(fresh);
  }
  setup_s = median(times);
  return state;
}

/// The metrics every workload reports in an untraced run.
void setEndToEnd(RunResult& res, double setup_s, double throughput,
                 const std::vector<double>& latency_ms, double tail_pct,
                 const std::vector<double>& size_ratio,
                 const std::vector<double>& cycle_ratio, double peak_rss_mb) {
  res.metrics.set("setup_s", setup_s, "s");
  res.metrics.set("throughput_per_s", throughput, "1/s");
  res.metrics.set("latency_p50_ms", median(latency_ms), "ms");
  res.metrics.set("latency_tail_ms", pct(latency_ms, tail_pct), "ms");
  res.metrics.set("size_vs_oz", geomean(size_ratio), "ratio");
  res.metrics.set("cycles_vs_oz", geomean(cycle_ratio), "ratio");
  res.metrics.set("peak_rss_mb", peak_rss_mb, "MB");
}

/// Per-layer metrics shared by every workload, filled from replayed steps.
/// Sub-layer times are per replayed env step, so faults.sandbox_us +
/// target.size_us + target.mca_us + embed.embed_us adds up to the
/// attributed part of core.env_step_us.
void setStepLayers(RunResult& res, const Tracer& t, const StepCounts& c,
                   double env_step_us_replayed) {
  const double steps = static_cast<double>(c.steps);
  const auto perStep = [&](const char* span) {
    return ratio(t.totalUs(span), steps);
  };
  const auto perCall = [&](const char* span) {
    return ratio(t.totalUs(span), static_cast<double>(t.count(span)));
  };
  res.metrics.set("core.env_ctor_us", perCall("core.env_ctor"), "us");
  res.metrics.set("core.env_reset_us", perCall("core.env_reset"), "us");
  res.metrics.set("core.env_step_us", perCall("core.env_step"), "us");
  res.metrics.set("core.noop_step_frac", ratio(c.noops, steps), "fraction");
  res.metrics.set("core.replay_diverged_frac", ratio(c.diverged, c.replays),
                  "fraction");
  res.metrics.set("core.step_unattributed_frac",
                  env_step_us_replayed > 0.0
                      ? 1.0 - c.attributed_us / env_step_us_replayed
                      : 0.0,
                  "fraction");
  res.metrics.set("faults.sandbox_us", perStep("faults.sandbox"), "us");
  res.metrics.set("passes.run_us", perStep("passes.run"), "us");
  res.metrics.set("ir.snapshot_capture_us", perStep("ir.snapshot_capture"),
                  "us");
  res.metrics.set("ir.snapshot_restore_us", perCall("ir.snapshot_restore"),
                  "us");
  res.metrics.set("analysis.verify_us", perStep("analysis.verify"), "us");
  res.metrics.set("embed.embed_us", perStep("embed.embed"), "us");
  res.metrics.set("target.size_us", perStep("target.size"), "us");
  res.metrics.set("target.mca_us", perStep("target.mca"), "us");
  res.metrics.set("rl.act_us", perCall("rl.act"), "us");
  res.metrics.set("passes.oz_us", perCall("passes.oz"), "us");
  res.metrics.set("ir.clone_us", perCall("ir.clone"), "us");
}

/// Sets every per-layer metric to 0 in BENCHMARK.json order, so every traced
/// run prints the same names; a workload then sets the layers it exercises.
void initLayers(RunResult& res) {
  static const char* const kLayers[][2] = {
      {"core.env_ctor_us", "us"},
      {"core.env_reset_us", "us"},
      {"core.env_step_us", "us"},
      {"core.env_step_share", "fraction"},
      {"core.noop_step_frac", "fraction"},
      {"core.fault_frac", "fraction"},
      {"core.step_unattributed_frac", "fraction"},
      {"core.replay_diverged_frac", "fraction"},
      {"faults.sandbox_us", "us"},
      {"passes.run_us", "us"},
      {"passes.oz_us", "us"},
      {"ir.snapshot_capture_us", "us"},
      {"ir.snapshot_restore_us", "us"},
      {"ir.clone_us", "us"},
      {"ir.clones_per_request", "count"},
      {"analysis.verify_us", "us"},
      {"analysis.cache_hit_rate", "fraction"},
      {"embed.embed_us", "us"},
      {"embed.cache_hit_rate", "fraction"},
      {"target.size_us", "us"},
      {"target.mca_us", "us"},
      {"rl.act_us", "us"},
      {"rl.update_us", "us"},
      {"rl.learn_share", "fraction"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p95", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.service_ms_p95", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.backlog_max", "count"},
      {"serve.retries_per_req", "count"},
      {"serve.rollout_used_frac", "fraction"},
      {"serve.unattributed_frac", "fraction"},
      {"online.wal_append_us", "us"},
      {"online.wal_syncs_per_record", "count"},
      {"online.ingest_frac", "fraction"},
      {"online.trained_batches", "count"},
      {"online.promotions", "count"},
      {"online.swap_us", "us"},
      {"proc.cpu_util", "fraction"},
      {"loadgen.late_ms_p99", "ms"},
      {"input_repeat_frac", "fraction"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& m : kLayers) res.metrics.set(m[0], 0.0, m[1]);
}

void writeTrace(const Options& o, const Tracer& tracer, RunResult& res) {
  if (o.trace_file.empty()) return;
  if (!tracer.writeChromeJson(o.trace_file)) {
    res.fail("cannot write trace file " + o.trace_file);
  }
}

/// Tallies of checked responses.
struct ResponseTally {
  std::vector<double> size_ratio;
  std::vector<double> cycle_ratio;
  std::size_t responses = 0;
  std::size_t rollout_used = 0;  ///< FullRollout or BestPrefix responses.
};

/// Checks one response against its input (README "Output checks").
void checkResponse(const ServeResult& r, std::size_t input_id,
                   const Module& input, OutputChecker& checker,
                   RunResult& res, ResponseTally& tally) {
  const std::string who = "request " + std::to_string(r.request_id) + ": ";
  if (r.status != ServeStatus::Ok) {
    res.fail(who + "status " + serveStatusName(r.status));
    return;
  }
  if (r.level == ServiceLevel::Identity || r.optimized == nullptr) {
    res.fail(who + "identity response (" + r.degraded_reason + ")");
    return;
  }
  if (!r.oz_verified) {
    res.fail(who + "the -Oz rung did not complete");
    return;
  }
  if (r.size_bytes > r.oz_size_bytes * (1.0 + 1e-9)) {
    res.fail(who + "output larger than stock -Oz");
    return;
  }
  const double size =
      SizeModel(TargetInfo::forArch(TargetArch::X86_64)).objectBytes(
          *r.optimized);
  if (std::fabs(size - r.size_bytes) > 1e-6 * std::max(1.0, size)) {
    res.fail(who + "reported size differs from the output's modeled size");
    return;
  }
  const OutputChecker::Verdict v = checker.check(input_id, input, *r.optimized);
  if (!v.ok) {
    res.fail(who + v.why +
             (checker.oz(input_id, input).preserves_behaviour
                  ? ""
                  : " (stock -Oz miscompiles this input too)"));
    return;
  }
  ++tally.responses;
  if (r.level != ServiceLevel::OzPipeline) ++tally.rollout_used;
  tally.size_ratio.push_back(r.size_bytes / r.oz_size_bytes);
  tally.cycle_ratio.push_back(
      ratio(v.cycles, checker.oz(input_id, input).cycles));
}

/// A training run's episode rewards and trained network, as one hash. The
/// network enters through its Q-values on fixed probe states: any change to
/// a weight's bits shows in them.
std::string digest(const std::vector<double>& rewards, const DoubleDqn& agent) {
  std::uint64_t h = fnv1a(rewards.data(), rewards.size() * sizeof(double));
  Rng rng(0xd16e57);
  std::vector<double> probe(agent.config().state_dim);
  for (int i = 0; i < 8; ++i) {
    for (double& x : probe) x = rng.nextDouble(-1.0, 1.0);
    const std::vector<double> q = agent.qValues(probe);
    h = fnv1a(q.data(), q.size() * sizeof(double), h);
  }
  return std::to_string(h);
}

std::string digest(const TrainResult& r) {
  return digest(r.stats.episode_rewards, *r.agent);
}

}  // namespace

// ---------------------------------------------------------------------------
// train: repeated identical training runs alternating with greedy
// deployment of the reference agent on the 37 suite programs.

RunResult runTrain(const Options& o) {
  RunResult res;
  const std::string blob = referenceAgent(o.state_dir, referenceSteps(o));
  const std::size_t steps = o.smoke ? 120 : 1000;
  const TrainConfig cfg = trainConfig(o.seed, steps);

  struct Inputs {
    std::vector<std::unique_ptr<Module>> corpus;
    std::vector<std::unique_ptr<Module>> suite;
  };
  double setup_s = 0.0;
  const std::unique_ptr<Inputs> in = setUp(
      [&] {
        auto fresh = std::make_unique<Inputs>();
        fresh->corpus = trainCorpus(o.seed, 32);
        fresh->suite = suitePrograms();
        // Warm-up run: pages in code and data and warms the allocator.
        trainAgent(pointers(fresh->corpus),
                   trainConfig(o.seed, o.smoke ? 30 : 500));
        return fresh;
      },
      setup_s, o.smoke);
  const std::vector<const Module*> corpus = pointers(in->corpus);
  const std::vector<std::unique_ptr<Module>>& suite = in->suite;

  const std::unique_ptr<DoubleDqn> agent = loadAgent(blob);
  const EnvConfig env;
  std::vector<double> rates, latency_ms;
  double peak_rss_mb = 0.0;
  Tracer tracer;
  if (!o.trace) {
    // Training repetitions alternate with timed greedy passes over the
    // suite, so both sample the machine over the whole run. Each runs in a
    // child forked from this process, which allocates nothing between
    // forks, so all repetitions start from one state and must end
    // bit-identical. A repetition reports its rate, its own peak resident
    // set and the digest of its result; a pass reports its latencies.
    const std::function<std::string()> repetition = [&] {
      const auto t0 = Clock::now();
      const TrainResult tr = trainAgent(corpus, cfg);
      const double rate =
          static_cast<double>(tr.stats.steps) / secondsSince(t0);
      return std::to_string(rate) + " " + std::to_string(peakRssMb()) + " " +
             digest(tr);
    };
    const std::function<std::string()> pass = [&] {
      std::string out;
      for (const auto& program : suite) {
        const auto t0 = Clock::now();
        applyPolicy(*agent, *program, odgSubSequences(), env);
        out += std::to_string(msBetween(t0, Clock::now())) + " ";
      }
      return out;
    };
    rates.reserve(1 << 12);
    latency_ms.reserve(suite.size() << 12);
    char out[2048];
    char first[128] = "";
    const auto start = Clock::now();
    do {
      inChild(repetition, out, sizeof out);
      char* rss = nullptr;
      char* result = nullptr;
      rates.push_back(std::strtod(out, &rss));
      peak_rss_mb = std::max(peak_rss_mb, std::strtod(rss, &result));
      ++res.attempted;
      if (rates.size() == 1) {
        std::snprintf(first, sizeof first, "%s", result);
      } else if (std::strcmp(result, first) != 0) {
        res.fail("training repetition " + std::to_string(rates.size()) +
                 " is not bit-identical to the first");
      }
      inChild(pass, out, sizeof out);
      char* p = out;
      for (std::size_t i = 0; i < suite.size(); ++i) {
        latency_ms.push_back(std::strtod(p, &p));
      }
    } while (rates.size() < (o.smoke ? 1u : 3u) ||
             secondsSince(start) < o.seconds);
  } else {
    // The copy runs here and trainAgent in a child forked just before it,
    // both from one state with all of the copy's bookkeeping allocated.
    TracedTrainRun copy;
    copy.reserve(cfg.total_steps);
    tracer.reserve(4 * cfg.total_steps + 64,
                   {"core.episode", "core.env_ctor", "core.env_reset",
                    "rl.act", "core.env_step", "rl.observe"});
    const std::function<std::string()> reference = [&] {
      return digest(trainAgent(corpus, cfg));
    };
    char expected[64];
    inChild(reference, expected, sizeof expected);
    const double cpu0 = cpuSeconds();
    const auto t1 = Clock::now();
    tracedTrainLoop(corpus, cfg, tracer, copy);
    const double copy_s = secondsSince(t1);
    const std::size_t loop_spans = tracer.size();
    const double copy_cpu = cpuSeconds() - cpu0;
    res.attempted += 2;
    if (digest(copy.stats.episode_rewards, *copy.agent) != expected) {
      res.fail("the traced training loop is not bit-identical to trainAgent");
    }
    StepCounts counts;
    const std::size_t replayed =
        replayEpisodes(corpus, copy, cfg, tracer, replayBudget(o), counts);
    double env_step_us = 0.0;
    for (std::size_t e = 0; e < replayed; ++e) env_step_us += copy.step_us[e];
    const double loop_us = copy_s * 1e6;
    initLayers(res);
    setStepLayers(res, tracer, counts, env_step_us);
    res.metrics.set("core.env_step_share",
                    tracer.totalUs("core.env_step") / loop_us, "fraction");
    res.metrics.set("core.fault_frac",
                    ratio(copy.faulted_steps, copy.stats.steps), "fraction");
    res.metrics.set("analysis.cache_hit_rate", copy.stats.analysis.hitRate(),
                    "fraction");
    const EmbedCacheStats& ec = copy.stats.embed_cache;
    res.metrics.set("embed.cache_hit_rate",
                    ratio(ec.hits, ec.hits + ec.misses), "fraction");
    res.metrics.set("rl.update_us",
                    ratio(tracer.totalUs("rl.observe"),
                          copy.agent->trainingUpdates()),
                    "us");
    res.metrics.set("rl.learn_share", tracer.totalUs("rl.observe") / loop_us,
                    "fraction");
    res.metrics.set("proc.cpu_util", copy_cpu / (copy_s * cores()),
                    "fraction");
    res.metrics.set("input_repeat_frac",
                    ratio(copy.repeated_episodes, copy.stats.episodes),
                    "fraction");
    res.metrics.set("trace.overhead_pct",
                    100.0 * static_cast<double>(loop_spans) *
                        Tracer::spanCostUs() / loop_us,
                    "%");
  }

  // Quality and output checks of greedy deployment on the suite.
  OutputChecker checker;
  std::vector<double> size_ratio, cycle_ratio;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const PolicyRollout rollout =
        applyPolicy(*agent, *suite[i], odgSubSequences(), env);
    ++res.attempted;
    const OutputChecker::Verdict v =
        checker.check(i, *suite[i], *rollout.optimized);
    if (!v.ok) {
      res.fail(suite[i]->name() + ": " + v.why);
      continue;
    }
    const OutputChecker::OzRef& oz = checker.oz(i, *suite[i]);
    size_ratio.push_back(rollout.size_bytes / oz.size_bytes);
    cycle_ratio.push_back(ratio(v.cycles, oz.cycles));
  }

  if (!o.trace) {
    setEndToEnd(res, setup_s, median(rates), latency_ms, 90.0, size_ratio,
                cycle_ratio, peak_rss_mb);
  } else {
    writeTrace(o, tracer, res);
  }
  return res;
}

// ---------------------------------------------------------------------------
// compile: one closed-loop caller, distinct programs, no queue.

RunResult runCompile(const Options& o) {
  RunResult res;
  const std::string blob = referenceAgent(o.state_dir, referenceSteps(o));
  struct Setup {
    std::unique_ptr<DoubleDqn> agent;
    std::unique_ptr<CompileService> service;  ///< Destroyed before agent.
  };
  const Deadline::Clock::duration deadline = std::chrono::seconds(10);
  double setup_s = 0.0;
  const std::unique_ptr<Setup> s = setUp(
      [&] {
        auto fresh = std::make_unique<Setup>();
        fresh->agent = loadAgent(blob);
        ServeConfig sc;
        sc.start_workers = false;
        sc.seed = o.seed;
        fresh->service = std::make_unique<CompileService>(
            *fresh->agent, odgSubSequences(), sc);
        // Warm-up requests: the same eight programs for every seed, from
        // past the end of the request pool.
        for (std::size_t i = 0; i < 8; ++i) {
          const auto warm = generateProgram(
              RequestStream::poolSpec(RequestStream::kPoolSize + i));
          fresh->service->compile(*warm, Deadline::after(deadline));
        }
        return fresh;
      },
      setup_s, o.smoke);
  const DoubleDqn* agent = s->agent.get();
  CompileService* service = s->service.get();

  Tracer tracer;
  OutputChecker checker;
  ResponseTally tally;
  std::vector<double> latency_ms;
  std::vector<std::size_t> pool_index;     // of each request sent
  std::vector<std::vector<bool>> blocked;  // breaker mask before each request
  std::set<std::size_t> seen;
  std::size_t repeats = 0;
  double busy_s = 0.0;
  const RequestStream stream(o.seed);
  const std::size_t max_requests = o.smoke ? 6 : RequestStream::kPoolSize;
  const double cpu0 = cpuSeconds();
  const auto wall0 = Clock::now();
  for (std::size_t i = 0; busy_s < o.seconds && i < max_requests; ++i) {
    const std::size_t j = stream.poolIndex(i);
    const std::unique_ptr<Module> program =
        generateProgram(RequestStream::poolSpec(j));
    if (!seen.insert(j).second) ++repeats;
    if (o.trace) blocked.push_back(service->breakers().blockedMask());
    const Tracer::Id span = o.trace ? tracer.begin("serve.request", j + 1) : 0;
    const auto t0 = Clock::now();
    ServeResult r = service->compile(*program, Deadline::after(deadline));
    const double ms = msBetween(t0, Clock::now());
    if (o.trace) tracer.end(span);
    busy_s += ms / 1e3;
    latency_ms.push_back(ms);
    pool_index.push_back(j);
    ++res.attempted;
    checkResponse(r, j, *program, checker, res, tally);
  }
  const double wall_s = secondsSince(wall0);
  const double cpu_s = cpuSeconds() - cpu0;

  if (!o.trace) {
    std::vector<double> busy(latency_ms);
    for (double& b : busy) b /= 1e3;
    setEndToEnd(res, setup_s, medianWindowRate(busy, 1.0), latency_ms,
                95.0, tally.size_ratio, tally.cycle_ratio, peakRssMb());
    return res;
  }

  const std::size_t request_spans = tracer.size();
  StepCounts counts;
  AnalysisCacheStats analysis;
  EmbedCacheStats embed;
  double attributed_us = 0.0, measured_us = 0.0;
  std::size_t clones = 0, replayed = 0;
  const auto replay0 = Clock::now();
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    if (replayed > 0 && secondsSince(replay0) >= replayBudget(o)) break;
    const auto program =
        generateProgram(RequestStream::poolSpec(pool_index[i]));
    const RequestReplay rr =
        replayRequest(*program, *agent, service->actions(), EnvConfig{},
                      blocked[i], tracer, pool_index[i] + 1, counts);
    attributed_us += rr.attributed_us;
    measured_us += latency_ms[i] * 1e3;
    clones += rr.clones;
    analysis.accumulate(rr.analysis);
    embed.hits += rr.embed.hits;
    embed.misses += rr.embed.misses;
    ++replayed;
  }
  initLayers(res);
  setStepLayers(res, tracer, counts, tracer.totalUs("core.env_step"));
  const ServiceStats stats = service->stats();
  res.metrics.set("core.env_step_share",
                  ratio(tracer.totalUs("core.env_step"), measured_us),
                  "fraction");
  res.metrics.set("core.fault_frac", ratio(counts.faults, counts.steps),
                  "fraction");
  res.metrics.set("analysis.cache_hit_rate", analysis.hitRate(), "fraction");
  res.metrics.set("embed.cache_hit_rate",
                  ratio(embed.hits, embed.hits + embed.misses), "fraction");
  res.metrics.set("ir.clones_per_request", ratio(clones, replayed), "count");
  res.metrics.set("serve.service_ms_p50", median(latency_ms), "ms");
  res.metrics.set("serve.service_ms_p95", pct(latency_ms, 95.0), "ms");
  res.metrics.set("serve.retries_per_req",
                  ratio(stats.retries, stats.completed), "count");
  res.metrics.set("serve.rollout_used_frac",
                  ratio(tally.rollout_used, tally.responses), "fraction");
  res.metrics.set("serve.unattributed_frac",
                  1.0 - ratio(attributed_us, measured_us), "fraction");
  res.metrics.set("proc.cpu_util", cpu_s / (wall_s * cores()), "fraction");
  res.metrics.set("input_repeat_frac", ratio(repeats, latency_ms.size()),
                  "fraction");
  res.metrics.set("trace.overhead_pct",
                  100.0 * static_cast<double>(request_spans) *
                      Tracer::spanCostUs() / (busy_s * 1e6),
                  "%");
  writeTrace(o, tracer, res);
  return res;
}

// ---------------------------------------------------------------------------
// serve / serve-online: open-loop arrivals at a fixed rate into 4 workers,
// then a closed loop with 4 requests in flight.

namespace {

/// Open-loop arrival rate: about a third of the closed-loop capacity
/// measured on 4 cores (README "Workloads").
constexpr double kServeRate = 35.0;
constexpr double kZipfExponent = 1.1;
const Deadline::Clock::duration kServeDeadline = std::chrono::seconds(2);

/// One service with its agent, request pool and (serve-online) learner.
struct ServeSetup {
  std::unique_ptr<DoubleDqn> agent;
  std::vector<std::unique_ptr<Module>> pool;
  std::string dir;  ///< Online learner state (removed on teardown).
  std::unique_ptr<OnlineLearner> learner;
  std::unique_ptr<CompileService> service;  ///< Destroyed before learner.

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() {
    service.reset();
    learner.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

std::unique_ptr<ServeSetup> makeServe(const Options& o, bool online,
                                      const std::string& blob, int rep) {
  auto s = std::make_unique<ServeSetup>();
  s->agent = loadAgent(blob);
  s->pool = servePool();
  if (online) {
    s->dir = o.state_dir + "/online-" + std::to_string(::getpid()) + "-" +
             std::to_string(rep);
    std::filesystem::remove_all(s->dir);
    std::filesystem::create_directories(s->dir);
    OnlineLearnerConfig oc;
    oc.dir = s->dir;
    oc.seed = o.seed;
    s->learner =
        std::make_unique<OnlineLearner>(*s->agent, odgSubSequences(), oc);
    // Two pool programs form the canary's held-out set.
    s->learner->addHoldoutModule(*s->pool[0]);
    s->learner->addHoldoutModule(*s->pool[1]);
    s->learner->start();
  }
  ServeConfig sc;
  sc.workers = 4;
  sc.seed = o.seed;
  sc.online = s->learner.get();
  s->service =
      std::make_unique<CompileService>(*s->agent, odgSubSequences(), sc);
  // Warm-up: four requests per worker, off the measured stream.
  std::vector<std::future<ServeResult>> warm;
  for (std::size_t i = 0; i < 16; ++i) {
    warm.push_back(s->service->submit(*s->pool[i % s->pool.size()],
                                      Deadline::after(kServeDeadline)));
  }
  for (auto& f : warm) f.get();
  return s;
}

/// A submitted open-loop request, handed from the generator thread to the
/// collector.
struct Sent {
  std::future<ServeResult> future;
  std::size_t rank = 0;
  Clock::time_point due;
  Clock::time_point sent;
};

}  // namespace

RunResult runServe(const Options& o, bool online) {
  RunResult res;
  const std::string blob = referenceAgent(o.state_dir, referenceSteps(o));
  int rep = 0;
  double setup_s = 0.0;
  const std::unique_ptr<ServeSetup> s =
      setUp([&] { return makeServe(o, online, blob, rep++); }, setup_s,
            o.smoke);
  CompileService& service = *s->service;

  const double open_s = 0.7 * o.seconds;
  const double closed_s = 0.3 * o.seconds;
  const double rate = o.smoke ? 10.0 : kServeRate;
  const auto n_open = static_cast<std::size_t>(std::max(1.0, open_s * rate));
  const ZipfSampler zipf(s->pool.size(), kZipfExponent);
  Rng rng = Rng::forStream(o.seed, 0x10ad);
  std::vector<std::size_t> ranks;
  for (std::size_t i = 0; i < n_open; ++i) {
    ranks.push_back(zipf.draw(rng.nextDouble()));
  }

  Tracer tracer;
  OutputChecker checker;
  ResponseTally tally;
  std::vector<double> latency_ms, late_ms, queue_ms, service_ms;
  std::vector<std::vector<double>> service_ms_by_rank(s->pool.size());
  std::vector<std::size_t> first_seen;  // ranks in order of first request
  std::vector<std::uint64_t> first_request(s->pool.size(), 0);  // its id
  std::size_t repeats = 0;
  std::size_t backlog_max = 0;

  // --- open loop ---------------------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  bool generator_done = false;
  const std::chrono::duration<double> period(1.0 / rate);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const double cpu0 = cpuSeconds();
  // A jthread, so an exception in the collector below still joins it.
  std::jthread generator([&] {
    for (std::size_t i = 0; i < n_open; ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(period * i);
      std::this_thread::sleep_until(due);
      Sent item;
      item.rank = ranks[i];
      item.due = due;
      item.sent = Clock::now();
      item.future = service.submit(*s->pool[ranks[i]],
                                   Deadline::at(due + kServeDeadline));
      const std::size_t depth = service.queueDepth();
      std::lock_guard<std::mutex> lock(mu);
      backlog_max = std::max(backlog_max, depth);
      sent.push_back(std::move(item));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    cv.notify_one();
  });
  for (;;) {
    Sent item;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !sent.empty() || generator_done; });
      if (sent.empty()) break;
      item = std::move(sent.front());
      sent.pop_front();
    }
    ServeResult r = item.future.get();
    ++res.attempted;
    const double late = msBetween(item.due, item.sent);
    late_ms.push_back(late);
    latency_ms.push_back(late + r.latency_ms);
    queue_ms.push_back(r.queue_ms);
    service_ms.push_back(r.latency_ms - r.queue_ms);
    service_ms_by_rank[item.rank].push_back(r.latency_ms - r.queue_ms);
    if (first_request[item.rank] != 0) {
      ++repeats;
    } else {
      first_seen.push_back(item.rank);
      first_request[item.rank] = r.request_id;
    }
    if (o.trace) {
      const auto sub = [](Clock::time_point t, double ms) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
      };
      const auto queued_until = sub(item.sent, r.queue_ms);
      const auto done = sub(item.sent, r.latency_ms);
      const Tracer::Id req =
          tracer.add("serve.request", item.due, done, 0, r.request_id);
      tracer.add("loadgen.late", item.due, item.sent, req, r.request_id);
      tracer.add("serve.queue", item.sent, queued_until, req, r.request_id);
      tracer.add("serve.service", queued_until, done, req, r.request_id);
    }
    checkResponse(r, item.rank, *s->pool[item.rank], checker, res, tally);
  }
  generator.join();
  const double open_wall_s = secondsSince(start);
  const double open_cpu_s = cpuSeconds() - cpu0;
  const std::size_t request_spans = tracer.size();

  // A late generator is the machine's fault, not the program's: the run is
  // marked invalid for the reader (compare.sh counts these) while its
  // latencies, timed from the due time, still include the lateness.
  const double late_p99 = pct(late_ms, 99.0);
  if (late_p99 > 5.0) {
    std::fprintf(stderr,
                 "e2e: INVALID: the open-loop generator ran %.2f ms late at "
                 "p99 (limit 5 ms)\n",
                 late_p99);
  }

  // --- closed loop: 4 requests in flight ---------------------------------
  // Four clients, each submitting its next request when the previous one
  // completes. Draws, checks and tallies happen under one lock.
  const auto closed_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(closed_s));
  std::vector<double> completion_gaps;
  auto last_done = Clock::now();
  const auto client = [&] {
    for (;;) {
      std::size_t rank = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        rank = zipf.draw(rng.nextDouble());
      }
      ServeResult r = service
                          .submit(*s->pool[rank],
                                  Deadline::after(kServeDeadline))
                          .get();
      std::lock_guard<std::mutex> lock(mu);
      const auto now = Clock::now();
      completion_gaps.push_back(
          std::chrono::duration<double>(now - last_done).count());
      last_done = now;
      ++res.attempted;
      checkResponse(r, rank, *s->pool[rank], checker, res, tally);
      if (now >= closed_end) return;
    }
  };
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < 4; ++c) clients.emplace_back(client);
  }
  const double capacity = medianWindowRate(completion_gaps, 0.5);

  service.shutdown();
  if (s->learner != nullptr) s->learner->stop();

  if (!o.trace) {
    setEndToEnd(res, setup_s, capacity, latency_ms, 95.0, tally.size_ratio,
                tally.cycle_ratio, peakRssMb());
    return res;
  }

  // Attribution: replay each requested pool program once, in order of first
  // request, against its measured median service time.
  StepCounts counts;
  AnalysisCacheStats analysis;
  EmbedCacheStats embed;
  double attributed_us = 0.0, measured_us = 0.0;
  std::size_t clones = 0, replayed = 0;
  const auto replay0 = Clock::now();
  for (const std::size_t rank : first_seen) {
    if (replayed > 0 && secondsSince(replay0) >= replayBudget(o)) break;
    const RequestReplay rr =
        replayRequest(*s->pool[rank], *s->agent, service.actions(),
                      EnvConfig{}, {}, tracer, first_request[rank], counts);
    attributed_us += rr.attributed_us;
    measured_us += median(service_ms_by_rank[rank]) * 1e3;
    clones += rr.clones;
    analysis.accumulate(rr.analysis);
    embed.hits += rr.embed.hits;
    embed.misses += rr.embed.misses;
    ++replayed;
  }
  initLayers(res);
  setStepLayers(res, tracer, counts, tracer.totalUs("core.env_step"));
  const ServiceStats stats = service.stats();
  const InferenceBatcher::Stats batcher = service.batcherStats();
  res.metrics.set("core.env_step_share",
                  ratio(tracer.totalUs("core.env_step"), measured_us),
                  "fraction");
  res.metrics.set("core.fault_frac", ratio(counts.faults, counts.steps),
                  "fraction");
  res.metrics.set("analysis.cache_hit_rate", analysis.hitRate(), "fraction");
  res.metrics.set("embed.cache_hit_rate",
                  ratio(embed.hits, embed.hits + embed.misses), "fraction");
  res.metrics.set("ir.clones_per_request", ratio(clones, replayed), "count");
  res.metrics.set("serve.queue_ms_p50", median(queue_ms), "ms");
  res.metrics.set("serve.queue_ms_p95", pct(queue_ms, 95.0), "ms");
  res.metrics.set("serve.service_ms_p50", median(service_ms), "ms");
  res.metrics.set("serve.service_ms_p95", pct(service_ms, 95.0), "ms");
  res.metrics.set("serve.batch_mean", ratio(batcher.calls, batcher.batches),
                  "count");
  res.metrics.set("serve.backlog_max", static_cast<double>(backlog_max),
                  "count");
  res.metrics.set("serve.retries_per_req",
                  ratio(stats.retries, stats.completed), "count");
  res.metrics.set("serve.rollout_used_frac",
                  ratio(tally.rollout_used, tally.responses), "fraction");
  res.metrics.set("serve.unattributed_frac",
                  1.0 - ratio(attributed_us, measured_us), "fraction");
  if (s->learner != nullptr) {
    const OnlineStats os = s->learner->stats();
    const TrajectoryWal::Stats wal = s->learner->walStats();
    res.metrics.set("online.wal_append_us", ratio(wal.append_us, wal.records),
                    "us");
    res.metrics.set("online.wal_syncs_per_record",
                    ratio(wal.syncs, wal.records), "count");
    res.metrics.set("online.ingest_frac",
                    ratio(os.ingested_episodes, stats.completed), "fraction");
    res.metrics.set("online.trained_batches",
                    static_cast<double>(os.trained_batches), "count");
    res.metrics.set("online.promotions", static_cast<double>(os.promotions),
                    "count");
    res.metrics.set("online.swap_us",
                    s->learner->registryStats().last_publish_us, "us");
  }
  res.metrics.set("proc.cpu_util", open_cpu_s / (open_wall_s * cores()),
                  "fraction");
  res.metrics.set("loadgen.late_ms_p99", late_p99, "ms");
  res.metrics.set("input_repeat_frac", ratio(repeats, latency_ms.size()),
                  "fraction");
  res.metrics.set("trace.overhead_pct",
                  100.0 * static_cast<double>(request_spans) *
                      Tracer::spanCostUs() / (open_wall_s * 1e6),
                  "%");
  writeTrace(o, tracer, res);
  return res;
}

}  // namespace e2e
