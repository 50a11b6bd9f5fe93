#pragma once

/// \file service.h
/// Deadline-aware compile service: concurrent phase-ordering policy serving
/// with graceful degradation (see DESIGN.md "Serving and graceful
/// degradation").
///
/// A CompileService owns a pool of worker threads over a bounded request
/// queue. Each request carries a monotonic Deadline; workers roll out the
/// shared trained agent greedily on the request's module, with every action
/// executed inside PR 2's fault sandbox and the deadline propagated into
/// SandboxConfig so wall-clock expiry is contained exactly like a fault.
///
/// Robustness machinery per request:
///  - admission control: a full queue load-sheds immediately (structured
///    ServeStatus::Rejected) instead of blocking the caller;
///  - transient contained faults are retried with exponential backoff +
///    jitter (per-worker RNG, no shared stream);
///  - repeat offenders trip a per-action circuit breaker shared across all
///    requests (closed → open → half-open, serve/circuit_breaker.h), layered
///    on top of the environment's per-program quarantine;
///  - every response lands on an explicit degradation ladder:
///      FullRollout  — the greedy rollout ran all episode steps;
///      BestPrefix   — the rollout was cut short (deadline, exhausted
///                     actions); the best-so-far prefix output is returned;
///      OzPipeline   — the stock -Oz pipeline beat (or replaced) the rollout;
///      Identity     — nothing could be done in time; input returned as-is.
///    Whenever the -Oz rung completes (`oz_verified`), the response is
///    guaranteed no worse than stock -Oz by modeled size. The rung runs
///    beside the rollout on one of `workers` persistent rung threads (or on
///    the worker, if none has started it when the rollout ends). It is
///    memoized per service (serve/oz_memo.h): a repeated input whose printed
///    text equals a stored one reuses that run's output and size instead of
///    re-running the pipeline, and only completed runs are ever stored.
///
/// With an OnlineLearner attached (ServeConfig::online), the service also
/// closes the serve -> train loop: each request pins the current policy
/// snapshot for its whole lifetime (hot-swaps never affect in-flight work),
/// each served episode is appended to a write-ahead log and fed to the
/// background learner, and each response is reported to the promotion
/// watchdog that can roll a bad policy back. Either way each greedy act is
/// one forward pass of the request's pinned network on the worker's own
/// thread — no cross-worker queue, so concurrent requests never wait on
/// each other's inference.
///
/// Thread-safety contract: the agent is shared by const reference and only
/// its pure-const inference surface is used (see rl/dqn.h); all registered
/// passes must be registered before start() (the pass registry is read-only
/// while serving); request modules must stay alive until their future
/// resolves.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/environment.h"
#include "core/oz_sequence.h"
#include "online/online_learner.h"
#include "rl/dqn.h"
#include "serve/circuit_breaker.h"
#include "serve/oz_memo.h"
#include "support/deadline.h"
#include "support/rng.h"

namespace posetrl {

class Module;

/// Where on the degradation ladder a response landed (best to worst).
enum class ServiceLevel { FullRollout, BestPrefix, OzPipeline, Identity };
const char* serviceLevelName(ServiceLevel level);

/// Request disposition.
enum class ServeStatus {
  Ok,        ///< Processed; `level` says how well.
  Rejected,  ///< Load-shed at admission (queue full); no work done.
  ShutDown,  ///< Service shut down before the request was processed.
};
const char* serveStatusName(ServeStatus status);

struct ServeConfig {
  std::size_t workers = 4;
  /// Bounded queue: submissions beyond this are rejected immediately.
  std::size_t queue_capacity = 64;
  /// Retries per faulting action within one request (beyond the first try).
  std::size_t max_retries = 2;
  /// Backoff before retry k is `backoff_base * 2^k`, jittered by
  /// ±backoff_jitter (fraction), capped by the request deadline.
  std::chrono::milliseconds backoff_base{1};
  double backoff_jitter = 0.5;
  /// Fraction of the request's remaining deadline the rollout leaves for a
  /// -Oz rung run after it (taken back unstarted, or the verify-off
  /// fallback). A rung run beside the rollout has the full deadline.
  double oz_reserve = 0.35;
  /// Compare every rollout output against stock -Oz (modeled size) and
  /// degrade to the -Oz result when it wins. Costs one -Oz pipeline per
  /// request, run beside the rollout; buys the "never worse than -Oz"
  /// guarantee. With false, -Oz runs only if the rollout yields nothing.
  bool verify_against_oz = true;
  CircuitBreakerConfig breaker;
  /// Environment settings for rollouts (every action runs sandboxed; the
  /// per-request deadline overwrites env.sandbox.deadline).
  EnvConfig env;
  /// Seed for the per-worker RNG streams (backoff jitter).
  std::uint64_t seed = 0x5e27e;
  /// Spawn workers in the constructor. With false, call start() explicitly
  /// (lets tests fill the queue deterministically first).
  bool start_workers = true;
  /// Online learning loop (wal.h / online_learner.h). Null serves the fixed
  /// constructor agent. Non-null changes three things: requests pin the
  /// learner's current policy snapshot at admission (and finish on it across
  /// hot-swaps), every served episode is durably ingested for training, and
  /// every response feeds the promotion watchdog. Must outlive the service.
  OnlineLearner* online = nullptr;
};

/// Outcome of one request.
struct ServeResult {
  ServeStatus status = ServeStatus::Ok;
  ServiceLevel level = ServiceLevel::Identity;
  std::unique_ptr<Module> optimized;  ///< Null unless status == Ok.
  double size_bytes = 0.0;            ///< Modeled size of `optimized`.
  double base_size_bytes = 0.0;       ///< Modeled size of the input.
  double oz_size_bytes = 0.0;         ///< Valid when `oz_verified`.
  /// The -Oz rung ran to completion and the response was verified no worse
  /// than it (by modeled size).
  bool oz_verified = false;
  /// Actions whose output is being returned (empty for Oz/Identity).
  std::vector<std::size_t> action_sequence;
  std::size_t steps_attempted = 0;  ///< Env steps consumed (incl. retries).
  std::size_t retries = 0;
  std::size_t faults = 0;  ///< Contained faults, including deadline expiry.
  std::map<std::string, std::size_t> faults_by_kind;
  bool deadline_expired = false;
  double queue_ms = 0.0;    ///< Time spent waiting for a worker.
  double latency_ms = 0.0;  ///< Submit-to-response wall time.
  std::uint64_t request_id = 0;
  /// Policy snapshot version the request was served on (0 = the fixed
  /// constructor agent, i.e. no online learner configured or no pin taken).
  std::uint64_t policy_version = 0;
  /// Why the response is not FullRollout (empty when it is).
  std::string degraded_reason;
};

/// Monotonic service-wide counters (snapshot via CompileService::stats()).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t shut_down = 0;
  std::size_t level_full = 0;
  std::size_t level_prefix = 0;
  std::size_t level_oz = 0;
  std::size_t level_identity = 0;
  std::size_t retries = 0;
  std::size_t faults = 0;
  std::size_t deadline_expired = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// -Oz rung memo (serve/oz_memo.h): lookups served from it, lookups
  /// that ran the pipeline, and the stored text in bytes.
  std::size_t oz_memo_hits = 0;
  std::size_t oz_memo_misses = 0;
  std::size_t oz_memo_bytes = 0;
  /// Greedy forward passes run (one per rollout act, inline on the
  /// requesting thread).
  std::size_t inferences = 0;
};

/// Greedy-inference counters in the shape of the retired micro-batcher's
/// stats. Exists only because the end-to-end benchmark (e2ebench/) reads
/// CompileService::batcherStats() as this type; inference runs inline, so
/// every act is its own batch of one.
struct InferenceBatcher {
  struct Stats {
    std::size_t calls = 0;
    std::size_t batches = 0;    ///< Always equal to `calls`.
    std::size_t max_batch = 0;  ///< 1 once any act has run.
  };
};

/// Thread-pool policy server over one shared trained agent.
class CompileService {
 public:
  /// \p agent must outlive the service; only const inference is used.
  /// \p actions is the action space the agent was trained over.
  CompileService(const DoubleDqn& agent, std::vector<SubSequence> actions,
                 ServeConfig config = {});
  ~CompileService();
  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Enqueues \p program (must stay alive until the future resolves). A
  /// full queue or a shut-down service resolves the future immediately with
  /// Rejected / ShutDown — submit never blocks on service capacity.
  std::future<ServeResult> submit(const Module& program, Deadline deadline);

  /// Synchronous single request on the caller's thread (no queue, no
  /// admission control) — same ladder, same breakers.
  ServeResult compile(const Module& program, Deadline deadline);

  /// Spawns the worker pool (no-op when already started). The rung threads
  /// start in the constructor, so compile() overlaps too.
  void start();
  /// Stops workers, then rung threads; queued-but-unprocessed requests
  /// resolve with ShutDown. Idempotent; also run by the destructor.
  void shutdown();

  std::size_t queueDepth() const;
  ServiceStats stats() const;
  BreakerBank& breakers() { return breakers_; }
  const std::vector<SubSequence>& actions() const { return actions_; }
  InferenceBatcher::Stats batcherStats() const {
    const std::size_t n = inferences_.load(std::memory_order_relaxed);
    return {n, n, n > 0 ? 1u : 0u};
  }

 private:
  struct Request {
    const Module* program = nullptr;
    Deadline deadline;
    std::promise<ServeResult> promise;
    std::uint64_t id = 0;
    Deadline::TimePoint submitted_at;
  };

  /// One -Oz rung run (ladder rung 3) and its outcome. It refers to the
  /// posting request's frame, so its destructor takes it back or waits for
  /// it on every exit from that frame, exceptions included.
  struct OzRung {
    OzRung(CompileService& s, const Module& p, const SandboxConfig& sc)
        : service(s), program(p), sandbox(sc) {}
    CompileService& service;
    const Module& program;
    const SandboxConfig sandbox;
    std::unique_ptr<Module> output;  ///< Null unless the run completed.
    FaultReport fault;               ///< Why not, when `output` is null.
    enum class State { Idle, Queued, Running, Done } state = State::Idle;
    std::condition_variable done;  ///< Running -> Done, under rung_mu_.
    void run();
    ~OzRung() { service.joinRung(*this, /*run_here=*/false); }
  };
  struct RungThread {
    std::thread thread;
    std::condition_variable wake;
    bool woken = false;  ///< A job was posted for this thread.
  };

  void workerLoop(std::size_t worker_index);
  void reaperLoop();
  void rungLoop(RungThread& self);
  /// Queues \p rung and wakes the idle rung thread that finished last.
  void postRung(OzRung& rung);
  /// Takes back \p rung if unstarted (and with \p run_here runs it inline),
  /// else waits for it.
  void joinRung(OzRung& rung, bool run_here);
  ServeResult process(const Module& program, Deadline deadline,
                      std::uint64_t id, Rng& rng);
  /// Cheap Identity response for a request whose deadline expired before
  /// any optimization work started.
  ServeResult expireRequest(const Module& program, std::uint64_t id,
                            const char* where);
  void recordResult(const ServeResult& r);
  /// Feeds the online learner after a response: durable episode ingest plus
  /// one watchdog observation. No-op without an online learner.
  void notifyOnline(const ServeResult& r, const Module& program,
                    std::vector<Transition> episode);

  const DoubleDqn* agent_;
  std::vector<SubSequence> actions_;
  ServeConfig config_;
  BreakerBank breakers_;
  OzMemo oz_memo_;
  std::atomic<std::size_t> inferences_{0};  ///< Greedy forward passes.

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< Wakes workers (new request/shutdown).
  std::condition_variable reap_cv_;  ///< Wakes the reaper; never shared with
                                     ///< workers, so submit()'s notify_one()
                                     ///< cannot be swallowed by the reaper.
  std::deque<Request> queue_;
  bool accepting_ = true;
  bool started_ = false;
  std::vector<std::thread> workers_;
  std::thread reaper_;
  std::uint64_t next_id_ = 1;
  std::uint64_t sync_streams_ = 0;  ///< RNG streams handed to compile().

  std::mutex rung_mu_;
  std::deque<OzRung*> rung_queue_;       ///< Posted, not yet started.
  std::vector<RungThread*> rung_idle_;   ///< Back finished most recently.
  std::vector<std::unique_ptr<RungThread>> rung_threads_;
  bool rung_stop_ = false;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace posetrl
