#pragma once

/// \file watchdog.h
/// Post-promotion health watchdog. Passing the canary gate proves a
/// candidate on held-out and shadow modules; the watchdog covers what the
/// gate cannot see — live traffic. It is armed for exactly one policy
/// version at promotion time, observes only requests served on that
/// version, and over a sliding window delivers one of two verdicts:
///
///   Breach    — the armed version is degrading live traffic (too many
///               requests falling to the -Oz/Identity rungs, fault rate
///               blowing up, or any violated -Oz guarantee). The caller
///               rolls back to the last-good snapshot; the watchdog disarms
///               so the restored incumbent is not judged by the breaching
///               window (no rollback loops).
///   Graduate  — the version survived a full healthy window. The caller
///               marks it last-good; the watchdog disarms until the next
///               promotion.
///
/// Requests served on other versions (in-flight on the predecessor, or
/// post-rollback traffic) are ignored by design.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

namespace posetrl {

/// One served request as the watchdog sees it (translated from ServeResult
/// by the serving layer; the online library stays independent of serve/).
struct ServeObservation {
  std::uint64_t policy_version = 0;  ///< Snapshot the request was served on.
  bool degraded = false;  ///< Landed on the OzPipeline or Identity rung.
  std::size_t faults = 0; ///< Contained faults during the request.
  /// The response violated the "never worse than verified -Oz" guarantee —
  /// must never happen; a single occurrence is grounds for breach.
  bool oz_violation = false;
};

struct WatchdogConfig {
  /// Sliding window length (observations of the armed version).
  std::size_t window = 64;
  /// No verdict before this many observations of the armed version.
  std::size_t min_observations = 8;
  /// Healthy observations needed to graduate the version to last-good.
  std::size_t graduate_observations = 24;
  /// Breach when more than this fraction of the window degraded.
  double max_degraded_fraction = 0.5;
  /// Breach when mean contained faults per request exceeds this.
  double max_fault_rate = 3.0;
};

class PromotionWatchdog {
 public:
  explicit PromotionWatchdog(WatchdogConfig config = {});

  enum class Verdict { None, Breach, Graduate };

  /// Arms the watchdog for \p version, clearing any previous window.
  void arm(std::uint64_t version);
  void disarm();
  bool armed() const;

  /// Feeds one served request. Returns a verdict for the armed version
  /// (None while unarmed, for other versions, or while the window is too
  /// small). A Breach or Graduate verdict disarms the watchdog before
  /// returning — each promotion gets exactly one verdict.
  Verdict observe(const ServeObservation& obs);

  struct Stats {
    std::size_t observed = 0;  ///< Armed-version observations consumed.
    std::size_t breaches = 0;
    std::size_t graduations = 0;
  };
  Stats stats() const;

 private:
  WatchdogConfig config_;
  mutable std::mutex mu_;
  bool armed_ = false;
  std::uint64_t armed_version_ = 0;
  std::deque<ServeObservation> window_;
  Stats stats_;
};

}  // namespace posetrl
