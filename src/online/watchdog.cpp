#include "online/watchdog.h"

#include "support/error.h"

namespace posetrl {

PromotionWatchdog::PromotionWatchdog(WatchdogConfig config)
    : config_(config) {
  POSETRL_CHECK(config_.window > 0, "watchdog window must be positive");
  POSETRL_CHECK(config_.min_observations > 0,
                "watchdog needs at least one observation before a verdict");
}

void PromotionWatchdog::arm(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  armed_version_ = version;
  window_.clear();
}

void PromotionWatchdog::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  window_.clear();
}

bool PromotionWatchdog::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

PromotionWatchdog::Verdict PromotionWatchdog::observe(
    const ServeObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || obs.policy_version != armed_version_) return Verdict::None;
  window_.push_back(obs);
  if (window_.size() > config_.window) window_.pop_front();
  ++stats_.observed;
  if (window_.size() < config_.min_observations) return Verdict::None;

  std::size_t degraded = 0, faults = 0;
  bool oz_violation = false;
  for (const ServeObservation& o : window_) {
    degraded += o.degraded ? 1 : 0;
    faults += o.faults;
    oz_violation = oz_violation || o.oz_violation;
  }
  const double n = static_cast<double>(window_.size());
  const bool breach =
      oz_violation ||
      static_cast<double>(degraded) / n > config_.max_degraded_fraction ||
      static_cast<double>(faults) / n > config_.max_fault_rate;
  if (breach) {
    ++stats_.breaches;
    armed_ = false;
    window_.clear();
    return Verdict::Breach;
  }
  if (window_.size() >= config_.graduate_observations) {
    ++stats_.graduations;
    armed_ = false;
    window_.clear();
    return Verdict::Graduate;
  }
  return Verdict::None;
}

PromotionWatchdog::Stats PromotionWatchdog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace posetrl
