#pragma once

// Per-backend circuit breaker of the sort service (docs/SERVICE.md).
//
// State machine, all transitions on the service's virtual clock:
//
//   closed ──(K consecutive failures)──► open
//   open ──(cooldown elapsed)──► half-open
//   half-open ──(probe succeeds)──► closed
//   half-open ──(probe fails)──► open  (cooldown restarts)
//
// A half-open breaker admits exactly one in-flight probe job; further
// dispatch attempts are refused until the probe resolves.  Any success
// clears the consecutive-failure count.  All state changes are counted
// so the ServiceReport can expose breaker churn per backend.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace prodsort {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string to_string(BreakerState state);

struct BreakerConfig {
  int failure_threshold = 3;    ///< K consecutive failures trip the breaker
  std::int64_t cooldown = 512;  ///< virtual-time wait before the probe
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {});

  /// True when a job may be dispatched at virtual time `now`.  An open
  /// breaker whose cooldown has elapsed transitions to half-open here
  /// (and admits the probe); a half-open breaker with a probe already
  /// in flight refuses.
  [[nodiscard]] bool allows(std::int64_t now);

  /// The service calls this when it actually dispatches to the backend;
  /// in half-open state it marks the probe as in flight.
  void on_dispatch();

  void record_success();
  void record_failure(std::int64_t now);

  [[nodiscard]] BreakerState state() const noexcept { return state_; }
  [[nodiscard]] std::int64_t open_until() const noexcept { return open_until_; }
  [[nodiscard]] int consecutive_failures() const noexcept {
    return consecutive_failures_;
  }
  /// All state changes (closed->open, open->half-open, half-open->*).
  [[nodiscard]] std::int64_t transitions() const noexcept {
    return transitions_;
  }
  [[nodiscard]] std::int64_t times_opened() const noexcept {
    return times_opened_;
  }

 private:
  void trip(std::int64_t now);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  std::int64_t open_until_ = 0;
  std::int64_t transitions_ = 0;
  std::int64_t times_opened_ = 0;
};

/// The idle-backend pick of every event loop: a backend whose breaker
/// is not closed goes first (a half-open probe unblocks the backend
/// for everyone), then a closed one.  Each pass scans the `count`
/// slots round from `start`.  `breaker_of(slot)` returns the slot's
/// breaker, or null while the slot is busy; `blocked(slot)` refuses a
/// slot before its breaker is asked, since allows() moves an open
/// breaker whose cooldown has elapsed to half-open.  Returns the slot
/// picked, or -1.
template <class BreakerOf, class Blocked>
[[nodiscard]] int pick_backend(std::size_t count, std::size_t start,
                               std::int64_t now, BreakerOf&& breaker_of,
                               Blocked&& blocked) {
  for (const bool half_open_pass : {true, false}) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t slot = (start + k) % count;
      CircuitBreaker* breaker = breaker_of(slot);
      if (breaker == nullptr) continue;
      if ((breaker->state() != BreakerState::kClosed) != half_open_pass)
        continue;
      if (blocked(slot) || !breaker->allows(now)) continue;
      return static_cast<int>(slot);
    }
  }
  return -1;
}

}  // namespace prodsort
