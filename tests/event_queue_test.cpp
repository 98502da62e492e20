// The discrete-event kernel (service/event_queue.hpp) and the shared
// breaker-first backend pick (service/circuit_breaker.hpp): the event
// order, the retry backoff, and the pick order every loop relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "service/circuit_breaker.hpp"
#include "service/event_queue.hpp"

namespace prodsort {
namespace {

TEST(EventQueue, LowerKindPopsFirstAtEqualTime) {
  EventQueue q;
  q.push(5, 2, 10, 0);
  q.push(5, 0, 11, 0);
  q.push(3, 3, 12, 0);
  q.push(5, 1, 13, 0);
  std::vector<std::int64_t> ids;
  while (!q.empty()) ids.push_back(q.pop().id);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{12, 11, 13, 10}));
}

TEST(EventQueue, EqualTimeAndKindPopInPushOrder) {
  EventQueue q;
  for (int i = 0; i < 12; ++i) {
    q.push(7, 1, i, -i);
    q.push(7, 2, 100 + i, 0);  // interleaved, later kind
  }
  for (int i = 0; i < 12; ++i) {
    const EventQueue::Event e = q.pop();
    EXPECT_EQ(e.time, 7);
    EXPECT_EQ(e.kind, 1);
    EXPECT_EQ(e.id, i);
    EXPECT_EQ(e.aux, -i);
    EXPECT_EQ(e.seq, 2 * i);  // push stamps the sequence number
  }
  for (int i = 0; i < 12; ++i) EXPECT_EQ(q.pop().id, 100 + i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RetryBackoffDoublesToTheCapWithTheShiftClampedAt30) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t base : {std::int64_t{1}, std::int64_t{8}})
    for (const std::int64_t cap : {base, std::int64_t{256}, kMax})
      for (std::int64_t attempt = 1; attempt <= 40; ++attempt) {
        SCOPED_TRACE("base=" + std::to_string(base) +
                     " cap=" + std::to_string(cap) +
                     " attempt=" + std::to_string(attempt));
        const std::int64_t shift = std::min<std::int64_t>(attempt - 1, 30);
        const std::int64_t expect = std::min(cap, base << shift);
        EXPECT_EQ(retry_backoff(base, cap, attempt), expect);
      }
  EXPECT_EQ(retry_backoff(1, kMax, 31), std::int64_t{1} << 30);
  EXPECT_EQ(retry_backoff(1, kMax, 40), std::int64_t{1} << 30);  // clamp
  EXPECT_EQ(retry_backoff(8, 256, 1), 8);
  EXPECT_EQ(retry_backoff(8, 256, 5), 128);
  EXPECT_EQ(retry_backoff(8, 256, 6), 256);
  // A base whose clamped shift would pass int64 yields the cap.
  EXPECT_EQ(retry_backoff(std::int64_t{1} << 40, kMax, 40), kMax);
}

TEST(EventQueue, BackoffCheckKeepsTheCallersPrefix) {
  EXPECT_NO_THROW(check_backoff(1, 1, "stream:"));
  for (const auto& [base, cap] :
       {std::pair<std::int64_t, std::int64_t>{0, 8}, {9, 8}}) {
    try {
      check_backoff(base, cap, "pool router");
      ADD_FAILURE() << "base=" << base << " cap=" << cap << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "pool router backoff must satisfy 1 <= base <= cap");
    }
  }
}

/// Four backends with breakers that trip on one failure and cool down
/// for 10 steps.
struct Pool {
  std::vector<CircuitBreaker> breakers =
      std::vector<CircuitBreaker>(4, CircuitBreaker({1, 10}));
  std::vector<bool> busy = std::vector<bool>(4, false);
  std::vector<bool> blocked = std::vector<bool>(4, false);

  int pick(std::size_t start, std::int64_t now) {
    return pick_backend(
        breakers.size(), start, now,
        [&](std::size_t i) { return busy[i] ? nullptr : &breakers[i]; },
        [&](std::size_t i) { return blocked[i]; });
  }
};

TEST(PickBackend, RotatesFromItsCursorAndSkipsBusySlots) {
  Pool p;
  EXPECT_EQ(p.pick(0, 0), 0);
  EXPECT_EQ(p.pick(2, 0), 2);
  p.busy[3] = true;
  EXPECT_EQ(p.pick(3, 0), 0);  // wraps past the busy slot
  p.busy.assign(4, true);
  EXPECT_EQ(p.pick(1, 0), -1);
}

TEST(PickBackend, ServesHalfOpenBeforeClosed) {
  Pool p;
  p.breakers[2].record_failure(0);  // open until 10
  EXPECT_EQ(p.pick(0, 5), 0);       // still cooling down: closed serves
  EXPECT_EQ(p.breakers[2].state(), BreakerState::kOpen);
  EXPECT_EQ(p.pick(0, 10), 2);  // cooled down: the probe goes first
  EXPECT_EQ(p.breakers[2].state(), BreakerState::kHalfOpen);
  p.breakers[2].on_dispatch();  // probe in flight: refused until it lands
  EXPECT_EQ(p.pick(2, 11), 3);
}

TEST(PickBackend, BlockedSlotsAreRefusedBeforeTheirBreakerIsAsked) {
  Pool p;
  p.breakers[1].record_failure(0);
  p.blocked[1] = true;
  p.blocked[0] = true;
  EXPECT_EQ(p.pick(0, 10), 2);
  // allows() was never called on the blocked slot, so it is still open.
  EXPECT_EQ(p.breakers[1].state(), BreakerState::kOpen);
  p.blocked.assign(4, true);
  EXPECT_EQ(p.pick(0, 10), -1);
}

}  // namespace
}  // namespace prodsort
