#include "serve/circuit_breaker.h"

#include "support/error.h"

namespace posetrl {

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config)
    : config_(config) {}

BreakerState CircuitBreaker::state(TimePoint now) {
  if (state_ == BreakerState::Open && now - opened_at_ >= config_.open_cooldown) {
    state_ = BreakerState::HalfOpen;
    probe_successes_ = 0;
    probe_in_flight_ = false;
  }
  return state_;
}

void CircuitBreaker::trip(TimePoint now) {
  state_ = BreakerState::Open;
  opened_at_ = now;
  probe_in_flight_ = false;
  probe_successes_ = 0;
  ++trips_;
}

bool CircuitBreaker::tryAcquire(TimePoint now) {
  switch (state(now)) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      return false;
    case BreakerState::HalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  POSETRL_UNREACHABLE("unknown BreakerState");
}

void CircuitBreaker::recordSuccess(TimePoint now) {
  switch (state(now)) {
    case BreakerState::Closed:
      consecutive_failures_ = 0;
      return;
    case BreakerState::HalfOpen:
      probe_in_flight_ = false;
      if (++probe_successes_ >= config_.close_after_successes) {
        state_ = BreakerState::Closed;
        consecutive_failures_ = 0;
      }
      return;
    case BreakerState::Open:
      // A success from an attempt granted before the breaker re-opened;
      // ignore — the open cooldown governs recovery.
      return;
  }
}

void CircuitBreaker::recordFailure(TimePoint now) {
  switch (state(now)) {
    case BreakerState::Closed:
      if (++consecutive_failures_ >= config_.failure_threshold &&
          config_.failure_threshold > 0) {
        trip(now);
      }
      return;
    case BreakerState::HalfOpen:
      // The probe failed: straight back to open, restarting the cooldown.
      trip(now);
      return;
    case BreakerState::Open:
      return;
  }
}

void CircuitBreaker::release(TimePoint now) {
  if (state(now) == BreakerState::HalfOpen) probe_in_flight_ = false;
}

bool CircuitBreaker::blocked(TimePoint now) {
  switch (state(now)) {
    case BreakerState::Closed:
      return false;
    case BreakerState::Open:
      return true;
    case BreakerState::HalfOpen:
      return probe_in_flight_;
  }
  POSETRL_UNREACHABLE("unknown BreakerState");
}

BreakerBank::BreakerBank(std::size_t num_actions, CircuitBreakerConfig config)
    : breakers_(num_actions, CircuitBreaker(config)) {}

std::vector<bool> BreakerBank::blockedMask(TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<bool> mask(breakers_.size(), false);
  for (std::size_t i = 0; i < breakers_.size(); ++i) {
    mask[i] = breakers_[i].blocked(now);
  }
  return mask;
}

bool BreakerBank::tryAcquire(std::size_t action, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  POSETRL_CHECK(action < breakers_.size(), "breaker action out of range");
  return breakers_[action].tryAcquire(now);
}

void BreakerBank::recordSuccess(std::size_t action, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  POSETRL_CHECK(action < breakers_.size(), "breaker action out of range");
  breakers_[action].recordSuccess(now);
}

void BreakerBank::recordFailure(std::size_t action, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  POSETRL_CHECK(action < breakers_.size(), "breaker action out of range");
  breakers_[action].recordFailure(now);
}

void BreakerBank::release(std::size_t action, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  POSETRL_CHECK(action < breakers_.size(), "breaker action out of range");
  breakers_[action].release(now);
}

BreakerState BreakerBank::state(std::size_t action, TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  POSETRL_CHECK(action < breakers_.size(), "breaker action out of range");
  return breakers_[action].state(now);
}

std::size_t BreakerBank::totalTrips() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const CircuitBreaker& b : breakers_) total += b.trips();
  return total;
}

}  // namespace posetrl
