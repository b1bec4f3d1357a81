#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/require.hpp"

namespace vdm::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, FifoAtEqualTimestamps) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(2.0, [&] {
    s.schedule_in(1.5, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.schedule_at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(4.0, [] {}), util::InvariantError);
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), util::InvariantError);
}

TEST(Simulator, RejectsNullCallback) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(1.0, nullptr), util::InvariantError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator s;
  const EventId id = s.schedule_at(1.0, [] {});
  s.cancel(id);
  EXPECT_NO_THROW(s.cancel(id));
  s.run();
  EXPECT_NO_THROW(s.cancel(id));  // after it would have fired
}

TEST(Simulator, CancelFromInsideEarlierEvent) {
  Simulator s;
  bool fired = false;
  const EventId later = s.schedule_at(2.0, [&] { fired = true; });
  s.schedule_at(1.0, [&] { s.cancel(later); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilExecutesInclusiveAndAdvancesClock) {
  Simulator s;
  int count = 0;
  s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  s.schedule_at(3.0, [&] { ++count; });
  const std::size_t ran = s.run_until(2.0);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, RunUntilOnEmptyQueueAdvancesClock) {
  Simulator s;
  EXPECT_EQ(s.run_until(10.0), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  std::vector<double> times;
  s.schedule_at(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(0.5, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, RunHonorsMaxEvents) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i + 1.0, [&] { ++count; });
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, ExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 5u);
}

TEST(Simulator, PendingExcludesCancelled) {
  Simulator s;
  const EventId a = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical schedules must execute identically (the bit-determinism
  // the experiment runner relies on).
  auto run_one = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      s.schedule_at((i * 7) % 13 + 0.5, [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_one(), run_one());
}

}  // namespace
}  // namespace vdm::sim
