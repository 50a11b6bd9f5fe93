#pragma once

/// \file deadline.h
/// Monotonic-clock deadlines for the serving layer. A Deadline is a point on
/// std::chrono::steady_clock (immune to wall-clock adjustments) or "never".
/// Deadlines complement the cooperative fuel budgets of support/fuel.h: fuel
/// bounds *work* deterministically, a deadline bounds *wall time* — a pass
/// that is slow without being runaway still gets interrupted when a serving
/// request runs out of time.
///
/// A DeadlineScope arms a thread-local deadline; FuelScope::consume() — the
/// instrumentation hook already threaded through every pass driver — polls it
/// periodically and throws DeadlineExpiredError once the clock runs out, so
/// wall-clock expiry surfaces through the exact same containment path as
/// fuel exhaustion (sandbox rollback + FaultReport).

#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace posetrl {

/// Thrown by DeadlineScope::poll() when the armed deadline has passed.
class DeadlineExpiredError : public std::runtime_error {
 public:
  explicit DeadlineExpiredError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A monotonic point in time a piece of work must finish by, or "never".
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  /// Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline never() { return Deadline(); }
  static Deadline at(TimePoint tp) { return Deadline(tp); }
  static Deadline after(Clock::duration d) { return Deadline(Clock::now() + d); }
  static Deadline afterMillis(std::int64_t ms) {
    return after(std::chrono::milliseconds(ms));
  }

  bool isNever() const { return never_; }

  bool expired(TimePoint now = Clock::now()) const {
    return !never_ && now >= when_;
  }

  /// Time left on the clock, clamped at zero. Effectively unbounded for
  /// never-deadlines (Clock::duration::max()).
  Clock::duration remaining(TimePoint now = Clock::now()) const;
  std::int64_t remainingMillis(TimePoint now = Clock::now()) const;

  /// The underlying time point; only meaningful when !isNever().
  TimePoint when() const { return when_; }

  /// A deadline \p fraction (in [0,1]) of the way from \p now to this one —
  /// used to cap one part of a request's work and leave the tail of the
  /// budget for what must follow it (e.g. the rollout of the degradation
  /// ladder, which leaves time for a -Oz rung run after it). Never stays
  /// never.
  Deadline fractionFromNow(double fraction,
                           TimePoint now = Clock::now()) const;

  /// The earlier of two deadlines (never counts as latest).
  static Deadline earlier(const Deadline& a, const Deadline& b);

 private:
  explicit Deadline(TimePoint tp) : when_(tp), never_(false) {}

  TimePoint when_{};
  bool never_ = true;
};

/// RAII guard arming a deadline for the current thread (mirror of FuelScope;
/// scopes nest, the destructor restores the enclosing deadline). While armed,
/// poll() throws DeadlineExpiredError once the deadline passes — checked
/// cheaply (throttled clock reads) from FuelScope::consume().
class DeadlineScope {
 public:
  explicit DeadlineScope(Deadline deadline);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// True when a (non-never) deadline is armed on this thread.
  static bool active();

  /// The armed deadline (never() when inactive).
  static Deadline current();

  /// Throws DeadlineExpiredError when an armed deadline has passed; no-op
  /// otherwise. Reads the clock on every call — callers in hot loops should
  /// throttle (FuelScope::consume does).
  static void poll();

 private:
  Deadline prev_;
};

}  // namespace posetrl
