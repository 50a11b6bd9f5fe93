#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "faults/sandbox.h"
#include "ir/clone.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "support/error.h"
#include "target/size_model.h"

namespace posetrl {

const char* serviceLevelName(ServiceLevel level) {
  switch (level) {
    case ServiceLevel::FullRollout: return "full-rollout";
    case ServiceLevel::BestPrefix: return "best-prefix";
    case ServiceLevel::OzPipeline: return "oz-pipeline";
    case ServiceLevel::Identity: return "identity";
  }
  POSETRL_UNREACHABLE("unknown ServiceLevel");
}

const char* serveStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::Ok: return "ok";
    case ServeStatus::Rejected: return "rejected";
    case ServeStatus::ShutDown: return "shut-down";
  }
  POSETRL_UNREACHABLE("unknown ServeStatus");
}

namespace {

/// How often the reaper sweeps the queue for requests whose deadline
/// expired while still queued (resolved on the Identity rung instead of
/// waiting for a busy worker). This bounds an expired request's response
/// time under full load.
constexpr std::chrono::milliseconds kReapInterval{5};

double millisSince(Deadline::TimePoint t0) {
  return std::chrono::duration<double, std::milli>(Deadline::Clock::now() - t0)
      .count();
}

}  // namespace

CompileService::CompileService(const DoubleDqn& agent,
                               std::vector<SubSequence> actions,
                               ServeConfig config)
    : agent_(&agent),
      actions_(std::move(actions)),
      config_(config),
      breakers_(actions_.size(), config.breaker) {
  POSETRL_CHECK(!actions_.empty(), "service needs a non-empty action space");
  POSETRL_CHECK(config_.workers > 0, "service needs at least one worker");
  for (std::size_t i = 0; i < config_.workers; ++i) {
    RungThread& t = *rung_threads_.emplace_back(std::make_unique<RungThread>());
    t.thread = std::thread([this, &t] { rungLoop(t); });
  }
  if (config_.start_workers) start();
}

CompileService::~CompileService() { shutdown(); }

void CompileService::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || !accepting_) return;
  started_ = true;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
  reaper_ = std::thread([this] { reaperLoop(); });
}

void CompileService::shutdown() {
  std::vector<std::thread> workers;
  std::thread reaper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    workers.swap(workers_);
    reaper.swap(reaper_);
  }
  cv_.notify_all();
  reap_cv_.notify_all();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  if (reaper.joinable()) reaper.join();
  // After the workers, whose rungs may still run; later rungs run inline.
  std::vector<std::unique_ptr<RungThread>> rungs;
  {
    std::lock_guard<std::mutex> lock(rung_mu_);
    rung_stop_ = true;
    rung_idle_.clear();
    rungs.swap(rung_threads_);
  }
  for (const auto& t : rungs) {
    t->wake.notify_one();
    t->thread.join();
  }
  std::deque<Request> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  for (Request& req : leftover) {
    ServeResult r;
    r.status = ServeStatus::ShutDown;
    r.request_id = req.id;
    r.latency_ms = millisSince(req.submitted_at);
    recordResult(r);
    req.promise.set_value(std::move(r));
  }
}

std::future<ServeResult> CompileService::submit(const Module& program,
                                                Deadline deadline) {
  std::promise<ServeResult> promise;
  std::future<ServeResult> future = promise.get_future();
  const auto now = Deadline::Clock::now();

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.submitted;
  }
  if (!accepting_) {
    lock.unlock();
    ServeResult r;
    r.status = ServeStatus::ShutDown;
    r.request_id = id;
    recordResult(r);
    promise.set_value(std::move(r));
    return future;
  }
  if (queue_.size() >= config_.queue_capacity) {
    // Load shedding: reject immediately rather than blocking the caller or
    // growing the queue without bound.
    lock.unlock();
    ServeResult r;
    r.status = ServeStatus::Rejected;
    r.request_id = id;
    r.degraded_reason = "queue full (capacity " +
                        std::to_string(config_.queue_capacity) + ")";
    recordResult(r);
    promise.set_value(std::move(r));
    return future;
  }
  Request req;
  req.program = &program;
  req.deadline = deadline;
  req.promise = std::move(promise);
  req.id = id;
  req.submitted_at = now;
  queue_.push_back(std::move(req));
  lock.unlock();
  cv_.notify_one();
  return future;
}

ServeResult CompileService::compile(const Module& program, Deadline deadline) {
  std::uint64_t id, stream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    stream = config_.workers + sync_streams_++;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.submitted;
  }
  Rng rng = Rng::forStream(config_.seed, stream);
  ServeResult r = process(program, deadline, id, rng);
  recordResult(r);
  return r;
}

void CompileService::workerLoop(std::size_t worker_index) {
  // Private jitter stream per worker: deterministic, no sharing, no locks.
  Rng rng = Rng::forStream(config_.seed, worker_index);
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // shutting down, queue drained by owner
      if (!accepting_) return;     // shutdown: leftover queue gets ShutDown
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    ServeResult r = process(*req.program, req.deadline, req.id, rng);
    const double processing_ms = r.latency_ms;
    r.latency_ms = millisSince(req.submitted_at);
    r.queue_ms = std::max(0.0, r.latency_ms - processing_ms);
    recordResult(r);
    req.promise.set_value(std::move(r));
  }
}

void CompileService::reaperLoop() {
  // Under full load a queued request can outlive its deadline long before a
  // worker frees up; sweeping expired requests out of the queue here is what
  // keeps the "expired requests return promptly" bound independent of how
  // busy the workers are.
  std::unique_lock<std::mutex> lock(mu_);
  while (accepting_) {
    reap_cv_.wait_for(lock, kReapInterval);
    const auto now = Deadline::Clock::now();
    std::vector<Request> expired;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->deadline.expired(now)) {
        expired.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (expired.empty()) continue;
    lock.unlock();
    for (Request& req : expired) {
      ServeResult r = expireRequest(*req.program, req.id, "while queued");
      r.latency_ms = millisSince(req.submitted_at);
      r.queue_ms = r.latency_ms;
      recordResult(r);
      req.promise.set_value(std::move(r));
    }
    lock.lock();
  }
}

void CompileService::rungLoop(RungThread& self) {
  // Persistent: a thread per request would start on the poster's own CPU.
  std::unique_lock<std::mutex> lock(rung_mu_);
  for (;;) {
    while (!rung_queue_.empty()) {
      OzRung& rung = *rung_queue_.front();
      rung_queue_.pop_front();
      rung.state = OzRung::State::Running;
      lock.unlock();
      rung.run();
      lock.lock();
      rung.state = OzRung::State::Done;
      rung.done.notify_one();
    }
    if (rung_stop_) return;
    // LIFO, so a lone caller keeps reusing one thread and malloc arena.
    self.woken = false;
    rung_idle_.push_back(&self);
    self.wake.wait(lock, [&] { return self.woken || rung_stop_; });
  }
}

void CompileService::postRung(OzRung& rung) {
  std::lock_guard<std::mutex> lock(rung_mu_);
  rung.state = OzRung::State::Queued;
  rung_queue_.push_back(&rung);
  if (rung_idle_.empty()) return;  // a busy thread drains the queue next
  RungThread* t = rung_idle_.back();
  rung_idle_.pop_back();
  t->woken = true;
  t->wake.notify_one();
}

void CompileService::joinRung(OzRung& rung, bool run_here) {
  {
    std::unique_lock<std::mutex> lock(rung_mu_);
    if (rung.state == OzRung::State::Queued) {
      // Never wait on a queued job: the caller runs it no slower here.
      rung_queue_.erase(
          std::find(rung_queue_.begin(), rung_queue_.end(), &rung));
      rung.state = OzRung::State::Idle;
    }
    rung.done.wait(lock,
                   [&] { return rung.state != OzRung::State::Running; });
    if (!run_here) return;
  }
  if (rung.state == OzRung::State::Idle) rung.run();
}

void CompileService::OzRung::run() {
  auto oz = cloneModule(program);
  // Re-derive the naming counters from the names, as the parser does: the
  // output, fresh names included, then depends on the printed input alone,
  // which is what the memo compares.
  for (const auto& f : oz->functions()) f->resetNameCounters();
  const SandboxOutcome out = runActionSandboxed(oz, ozPassNames(), sandbox);
  if (out.ok) output = std::move(oz);
  fault = out.fault;
}

ServeResult CompileService::expireRequest(const Module& program,
                                          std::uint64_t id,
                                          const char* where) {
  ServeResult r;
  r.request_id = id;
  r.level = ServiceLevel::Identity;
  r.deadline_expired = true;
  r.degraded_reason = std::string("deadline expired ") + where;
  r.optimized = cloneModule(program);
  SizeModel size_model(TargetInfo::forArch(config_.env.arch));
  r.base_size_bytes = size_model.objectBytes(*r.optimized);
  r.size_bytes = r.base_size_bytes;
  return r;
}

ServeResult CompileService::process(const Module& program, Deadline deadline,
                                    std::uint64_t id, Rng& rng) {
  const auto t0 = Deadline::Clock::now();
  if (deadline.expired(t0)) {
    // Too late for any rung: skip even environment construction.
    ServeResult r = expireRequest(program, id, "before processing");
    r.latency_ms = millisSince(t0);
    return r;
  }
  ServeResult r;
  r.request_id = id;

  // Pin the policy for the whole request: with an online learner the
  // request is served on the snapshot current at admission and keeps using
  // it across any number of hot-swaps (the pin blocks its reclamation);
  // without one, the fixed constructor agent serves.
  SnapshotRegistry::Pin pin;
  const Mlp* policy = &agent_->onlineNet();
  if (config_.online != nullptr) {
    pin = config_.online->registry().pin();
    if (pin) {
      policy = &pin->net;
      r.policy_version = pin->version;
    }
  }
  std::vector<Transition> episode;

  // The rollout gets the head of the deadline; the tail is left for a -Oz
  // rung that runs after it, so a slow rollout cannot starve the safety net.
  const Deadline rollout_deadline =
      deadline.fractionFromNow(1.0 - config_.oz_reserve, t0);

  EnvConfig env_cfg = config_.env;
  env_cfg.sandbox.deadline = rollout_deadline;

  SizeModel size_model(TargetInfo::forArch(env_cfg.arch));

  PhaseOrderEnv env(program, actions_, env_cfg);
  r.base_size_bytes = env.baseSize();

  // Ladder rung 3, stock -Oz, starts now beside the rollout, sandboxed
  // within the full deadline, unless the memo has the input. It is posted
  // before the initial embedding, which the rollout needs and the rung does
  // not. The key hashes the worker's private copy: hashing the shared input
  // would stamp it while other threads read it.
  const std::uint64_t key = env.programHash();
  SandboxConfig oz_sandbox = sandboxConfigFor(env_cfg);
  oz_sandbox.deadline = deadline;
  OzRung rung(*this, program, oz_sandbox);
  bool want_oz = config_.verify_against_oz && !deadline.expired();
  OzMemo::Probe probe;
  if (want_oz) {
    probe = oz_memo_.lookup(key, program);
    if (probe.hit == nullptr) postRung(rung);
  }
  Embedding state = env.reset();

  // Best-prefix-so-far tracking; the empty prefix (input as-is) is the
  // starting point, so a rollout that never improves degrades cleanly. An
  // improvement only captures a flat snapshot; the one clone happens if the
  // prefix is actually returned.
  double best_size = env.currentSize();
  ModuleSnapshot best_snapshot;
  std::vector<std::size_t> best_actions;
  std::vector<std::size_t> taken;

  std::vector<bool> exhausted(actions_.size(), false);  // retries spent
  bool done = false;
  bool rollout_cut = false;  // stopped before the episode finished
  std::size_t acquire_races = 0;

  const auto onFault = [&](const FaultReport& fault) {
    ++r.faults;
    ++r.faults_by_kind[faultKindName(fault.kind)];
    if (fault.kind == FaultKind::DeadlineExpired) r.deadline_expired = true;
  };

  while (!done) {
    if (rollout_deadline.expired()) {
      r.deadline_expired = true;
      rollout_cut = true;
      if (r.degraded_reason.empty()) r.degraded_reason = "deadline expired mid-rollout";
      break;
    }

    // Selection mask: per-program quarantine + service-wide breakers +
    // actions that already exhausted their retries in this request.
    std::vector<bool> mask = breakers_.blockedMask();
    const std::vector<bool>& qmask = env.actionMask();
    std::size_t available = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask[i] = mask[i] || qmask[i] || exhausted[i];
      if (!mask[i]) ++available;
    }
    if (available == 0) {
      rollout_cut = true;
      if (r.degraded_reason.empty()) {
        r.degraded_reason = "all actions masked (quarantine/breakers)";
      }
      break;
    }

    inferences_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t action = maskedArgmax(policy->forward(state), &mask);
    if (!breakers_.tryAcquire(action)) {
      // Raced with another worker (breaker opened or probe slot claimed
      // between mask snapshot and acquire); re-pick with a fresh mask.
      if (++acquire_races > 4 * actions_.size()) {
        rollout_cut = true;
        r.degraded_reason = "breaker contention";
        break;
      }
      continue;
    }
    acquire_races = 0;

    // Attempt the action, retrying contained transient faults with
    // exponential backoff + jitter while time and retry budget remain.
    std::size_t attempt = 0;
    PhaseOrderEnv::StepResult sr;
    for (;;) {
      sr = env.step(action);
      ++r.steps_attempted;
      // Every attempt (faulted ones included — their penalty reward is the
      // signal that teaches the learner to avoid the action) becomes one
      // replay transition, mirroring the trainer's episode collection.
      Transition t;
      t.state = state;
      t.action = action;
      t.reward = sr.reward;
      t.next_state = sr.state;
      t.done = sr.done;
      episode.push_back(std::move(t));
      if (!sr.faulted) break;
      onFault(sr.fault);
      if (sr.fault.kind == FaultKind::DeadlineExpired) {
        // Deadline expiry says nothing about the action's health: hand back
        // the tryAcquire grant (frees a half-open probe slot) instead of
        // counting a success or failure. Without this the probe slot leaks
        // and the action stays masked service-wide forever. The rollout-cut
        // path below sees the same fault and ends the rollout.
        breakers_.release(action);
        break;
      }
      breakers_.recordFailure(action);
      if (sr.done || attempt >= config_.max_retries ||
          rollout_deadline.expired()) {
        break;
      }
      ++attempt;
      ++r.retries;
      const double jitter =
          1.0 + config_.backoff_jitter * (2.0 * rng.nextDouble() - 1.0);
      const double backoff_ms =
          static_cast<double>(config_.backoff_base.count()) *
          static_cast<double>(1ull << std::min<std::size_t>(attempt - 1, 20)) *
          jitter;
      auto backoff = std::chrono::duration_cast<Deadline::Clock::duration>(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff = std::min(backoff, rollout_deadline.remaining());
      if (backoff > Deadline::Clock::duration::zero()) {
        std::this_thread::sleep_for(backoff);
      }
      if (!breakers_.tryAcquire(action)) break;  // tripped while backing off
    }

    done = sr.done;
    state = std::move(sr.state);
    if (sr.faulted) {
      if (sr.fault.kind == FaultKind::DeadlineExpired) {
        rollout_cut = true;
        if (r.degraded_reason.empty()) {
          r.degraded_reason = "deadline expired mid-rollout";
        }
        break;
      }
      // Out of retries for this action: stop re-picking it this request.
      exhausted[action] = true;
      continue;
    }

    breakers_.recordSuccess(action);
    taken.push_back(action);
    if (env.currentSize() < best_size) {
      best_size = env.currentSize();
      best_snapshot.capture(env.currentModule());
      best_actions = taken;
    }
  }

  // Ladder rungs 1 & 2: the rollout's output.
  std::unique_ptr<Module> candidate;
  double candidate_size = 0.0;
  if (done && !rollout_cut) {
    candidate = cloneModule(env.currentModule());
    candidate_size = env.currentSize();
    r.action_sequence = taken;
    r.level = ServiceLevel::FullRollout;
  } else if (best_snapshot.valid()) {
    // The rollout is over, so the working module can be rewound in place.
    best_snapshot.restoreInto(env.workingModule());
    candidate = cloneModule(env.currentModule());
    candidate_size = best_size;
    r.action_sequence = best_actions;
    r.level = ServiceLevel::BestPrefix;
    if (r.degraded_reason.empty()) r.degraded_reason = "rollout cut short";
  }

  // Ladder rung 3 ends here (verify-off: runs here, for want of a candidate).
  // A memo hit's stored output is parsed only when it beats the rollout.
  if (!config_.verify_against_oz && candidate == nullptr &&
      !deadline.expired()) {
    want_oz = true;
    probe = oz_memo_.lookup(key, program);
  }
  if (want_oz) {
    std::unique_ptr<Module> oz;
    if (probe.hit != nullptr) {
      r.oz_verified = true;
      r.oz_size_bytes = probe.hit->size_bytes;
    } else {
      joinRung(rung, /*run_here=*/true);
      if (rung.output != nullptr) {
        oz = std::move(rung.output);
        r.oz_verified = true;
        r.oz_size_bytes = size_model.objectBytes(*oz);
        if (probe.admissible) {
          oz_memo_.admit(key, program, *oz, r.oz_size_bytes, size_model);
        }
      } else {
        onFault(rung.fault);
        if (candidate == nullptr && r.degraded_reason.empty()) {
          r.degraded_reason = std::string("-Oz rung faulted: ") +
                              faultKindName(rung.fault.kind);
        }
      }
    }
    if (r.oz_verified &&
        (candidate == nullptr || r.oz_size_bytes < candidate_size)) {
      if (candidate != nullptr) {
        r.degraded_reason = "stock -Oz beat the rollout output";
      } else if (r.degraded_reason.empty()) {
        r.degraded_reason = "rollout produced no candidate";
      }
      // Admission proved the stored text parses back to this size.
      candidate = oz != nullptr ? std::move(oz)
                                : parseModule(probe.hit->output_text);
      candidate_size = r.oz_size_bytes;
      r.action_sequence.clear();
      r.level = ServiceLevel::OzPipeline;
    }
  }

  // Ladder rung 4: identity — hand the input back unchanged.
  if (candidate == nullptr) {
    candidate = cloneModule(program);
    candidate_size = r.base_size_bytes;
    r.level = ServiceLevel::Identity;
    if (r.degraded_reason.empty()) r.degraded_reason = "no time for any rung";
  }

  r.optimized = std::move(candidate);
  r.size_bytes = candidate_size;
  r.latency_ms = millisSince(t0);
  notifyOnline(r, program, std::move(episode));
  return r;
}

void CompileService::notifyOnline(const ServeResult& r, const Module& program,
                                  std::vector<Transition> episode) {
  OnlineLearner* online = config_.online;
  if (online == nullptr) return;
  online->noteRequestModule(program);
  if (!episode.empty()) {
    annotateMonteCarloReturns(episode, agent_->config().gamma);
    EpisodeRecord rec;
    rec.shard =
        static_cast<std::uint32_t>(r.request_id % online->numShards());
    rec.request_id = r.request_id;
    rec.policy_version = r.policy_version;
    rec.faults = static_cast<std::uint32_t>(r.faults);
    rec.steps = std::move(episode);
    online->ingest(std::move(rec));
  }
  ServeObservation obs;
  obs.policy_version = r.policy_version;
  obs.degraded = r.level == ServiceLevel::OzPipeline ||
                 r.level == ServiceLevel::Identity;
  obs.faults = r.faults;
  // By ladder construction this cannot fire — it is the invariant the
  // watchdog enforces against regressions in the ladder itself.
  obs.oz_violation =
      r.oz_verified && r.size_bytes > r.oz_size_bytes * (1.0 + 1e-9);
  online->observe(obs);
}

void CompileService::recordResult(const ServeResult& r) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  switch (r.status) {
    case ServeStatus::Rejected:
      ++stats_.rejected;
      return;
    case ServeStatus::ShutDown:
      ++stats_.shut_down;
      return;
    case ServeStatus::Ok:
      break;
  }
  ++stats_.completed;
  switch (r.level) {
    case ServiceLevel::FullRollout: ++stats_.level_full; break;
    case ServiceLevel::BestPrefix: ++stats_.level_prefix; break;
    case ServiceLevel::OzPipeline: ++stats_.level_oz; break;
    case ServiceLevel::Identity: ++stats_.level_identity; break;
  }
  stats_.retries += r.retries;
  stats_.faults += r.faults;
  if (r.deadline_expired) ++stats_.deadline_expired;
  stats_.total_latency_ms += r.latency_ms;
  stats_.max_latency_ms = std::max(stats_.max_latency_ms, r.latency_ms);
}

std::size_t CompileService::queueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceStats CompileService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  const OzMemo::Stats memo = oz_memo_.stats();
  s.oz_memo_hits = memo.hits;
  s.oz_memo_misses = memo.misses;
  s.oz_memo_bytes = memo.bytes;
  s.inferences = inferences_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace posetrl
