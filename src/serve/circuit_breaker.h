#pragma once

/// \file circuit_breaker.h
/// Per-action circuit breakers for the compile service. The quarantine of
/// faults/quarantine.h is per-program and permanent; breakers are the
/// cross-request complement: an action that keeps faulting *across*
/// requests (any program) trips open and is masked out of policy selection
/// service-wide, then heals through a half-open probe once a cooldown
/// elapses — the classic closed → open → half-open state machine.
///
/// The state machine itself (CircuitBreaker) is single-threaded and takes
/// explicit time points, so tests drive it deterministically without
/// sleeping; BreakerBank wraps one breaker per action behind a mutex for
/// concurrent workers.

#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

namespace posetrl {

struct CircuitBreakerConfig {
  /// Consecutive failures that trip a closed breaker open.
  std::size_t failure_threshold = 3;
  /// Time an open breaker waits before allowing a half-open probe.
  std::chrono::milliseconds open_cooldown{250};
  /// Consecutive probe successes that close a half-open breaker.
  std::size_t close_after_successes = 1;
};

enum class BreakerState { Closed, Open, HalfOpen };

/// Breaker for one action. Not thread-safe; see BreakerBank.
class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// Current state; an open breaker whose cooldown has elapsed reports (and
  /// becomes) HalfOpen.
  BreakerState state(TimePoint now);

  /// Whether a caller may attempt this action now. Closed: always. Open:
  /// only once the cooldown elapses, which transitions to HalfOpen and
  /// claims the single probe slot. HalfOpen: only when no probe is already
  /// in flight. Claims the probe slot when it grants a half-open attempt.
  bool tryAcquire(TimePoint now);

  /// Outcome of an attempt granted by tryAcquire (or of a closed-state
  /// attempt that never needed a grant).
  void recordSuccess(TimePoint now);
  void recordFailure(TimePoint now);

  /// Relinquish a tryAcquire grant whose attempt produced no verdict on the
  /// action itself (e.g. the request's deadline expired mid-step). Frees the
  /// half-open probe slot without counting a success or failure, so the next
  /// caller can probe; no-op outside HalfOpen.
  void release(TimePoint now);

  /// Whether selection should mask this action out right now (open with
  /// cooldown pending, or half-open with the probe slot taken).
  bool blocked(TimePoint now);

  std::size_t trips() const { return trips_; }

 private:
  void trip(TimePoint now);

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::Closed;
  std::size_t consecutive_failures_ = 0;
  std::size_t probe_successes_ = 0;
  bool probe_in_flight_ = false;
  std::size_t trips_ = 0;  ///< Times the breaker went Closed/HalfOpen→Open.
  TimePoint opened_at_{};
};

/// One breaker per action, shared across all requests and worker threads.
class BreakerBank {
 public:
  using Clock = CircuitBreaker::Clock;
  using TimePoint = CircuitBreaker::TimePoint;

  BreakerBank(std::size_t num_actions, CircuitBreakerConfig config = {});

  std::size_t numActions() const { return breakers_.size(); }

  /// Blocked-mask snapshot for DoubleDqn::actGreedy (true = masked). The
  /// mask can go stale the moment the lock drops — selection must still
  /// tryAcquire() the chosen action and re-pick on refusal.
  std::vector<bool> blockedMask(TimePoint now = Clock::now());

  bool tryAcquire(std::size_t action, TimePoint now = Clock::now());
  void recordSuccess(std::size_t action, TimePoint now = Clock::now());
  void recordFailure(std::size_t action, TimePoint now = Clock::now());
  void release(std::size_t action, TimePoint now = Clock::now());

  BreakerState state(std::size_t action, TimePoint now = Clock::now());
  /// Total Closed/HalfOpen→Open transitions across all actions.
  std::size_t totalTrips() const;

 private:
  mutable std::mutex mu_;
  std::vector<CircuitBreaker> breakers_;
};

}  // namespace posetrl
