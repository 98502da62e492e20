#pragma once

// The discrete-event kernel of the PoolRouter and the StreamingSorter:
// the one event order on the virtual clock and the one retry backoff.
// Each loop keeps its own Kind enum and switches on popped events.  The
// report hashes and REPRO replays depend on the (time, kind, seq)
// order, so a loop's kinds must never be renumbered.

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

namespace prodsort {

class EventQueue {
 public:
  struct Event {
    std::int64_t time = 0;
    int kind = 0;          ///< the loop's own Kind; breaks time ties
    std::int64_t seq = 0;  ///< push order; breaks (time, kind) ties
    std::int64_t id = -1;  ///< the loop's job, run, batch or range id
    int aux = 0;           ///< the loop's payload: a backend, or a flag
  };

  /// Queues an event, stamping it with the next sequence number.
  void push(std::int64_t time, int kind, std::int64_t id, int aux) {
    heap_.push(Event{time, kind, seq_++, id, aux});
  }

  /// Removes and returns the least event in (time, kind, seq) order.
  /// The queue must not be empty.
  Event pop() {
    const Event e = heap_.top();
    heap_.pop();
    return e;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::int64_t seq_ = 0;
};

/// Delay before the retry that follows `attempt` (>= 1) failed
/// attempts: min(cap, base << min(attempt - 1, 30)).  A shift that
/// would pass `cap` yields `cap` without overflowing.
[[nodiscard]] constexpr std::int64_t retry_backoff(std::int64_t base,
                                                   std::int64_t cap,
                                                   std::int64_t attempt) {
  const auto shift = static_cast<int>(std::min<std::int64_t>(attempt - 1, 30));
  return base > (cap >> shift) ? cap : base << shift;
}

/// Throws std::invalid_argument("<who> backoff must satisfy 1 <= base
/// <= cap") unless the backoff parameters do.
inline void check_backoff(std::int64_t base, std::int64_t cap,
                          const std::string& who) {
  if (base < 1 || cap < base)
    throw std::invalid_argument(who + " backoff must satisfy 1 <= base <= cap");
}

}  // namespace prodsort
