#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/processes.hpp"
#include "util/rng.hpp"

namespace p2prank::sim {
namespace {

// Test events are plain ints; each test's dispatcher says what they do.
using Queue = EventQueue<int>;

TEST(EventQueue, StartsAtTimeZeroEmpty) {
  Queue q;
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step([](int) {}));
}

TEST(EventQueue, ExecutesInTimeOrder) {
  Queue q;
  std::vector<int> order;
  q.schedule_at(3.0, 3);
  q.schedule_at(1.0, 1);
  q.schedule_at(2.0, 2);
  q.run([&](int ev) { order.push_back(ev); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  Queue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule_at(1.0, i);
  q.run([&](int ev) { order.push_back(ev); });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RejectsPastAndNegative) {
  Queue q;
  q.schedule_at(5.0, 0);
  q.step([](int) {});
  EXPECT_THROW(q.schedule_at(4.0, 0), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, 0), std::invalid_argument);
  // A NaN time compares false against everything; it must not slip past
  // the ordering checks into the heap.
  EXPECT_THROW(q.schedule_at(std::nan(""), 0), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(std::nan(""), 0), std::invalid_argument);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  Queue q;
  int fired = 0;
  // A self-perpetuating chain of 5 events.
  const auto chain = [&](int) {
    ++fired;
    if (fired < 5) q.schedule_in(1.0, 0);
  };
  q.schedule_at(1.0, 0);
  q.run(chain);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 5.0);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  Queue q;
  int fired = 0;
  q.schedule_at(1.0, 0);
  q.schedule_at(2.0, 0);
  q.schedule_at(2.5, 0);
  const auto executed = q.run_until(2.0, [&](int) { ++fired; });
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenIdle) {
  Queue q;
  q.run_until(42.0, [](int) {});
  EXPECT_EQ(q.now(), 42.0);
}

TEST(EventQueue, RunUntilExecutesCascadedEventsWithinWindow) {
  Queue q;
  int fired = 0;
  constexpr int kSpawn = 1;  // fires, then schedules two leaf events
  constexpr int kLeaf = 0;
  q.schedule_at(1.0, kSpawn);
  q.run_until(5.0, [&](int ev) {
    ++fired;
    if (ev == kSpawn) {
      q.schedule_in(0.5, kLeaf);   // at 1.5, inside window
      q.schedule_in(10.0, kLeaf);  // at 11, outside
    }
  });
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunRespectsMaxEvents) {
  Queue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i + 1.0, i);
  const auto executed = q.run([&](int) { ++fired; }, 4);
  EXPECT_EQ(executed, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, PopOrderIsTimeThenScheduleOrderWhileHandlersSchedule) {
  // Many equal timestamps, and handlers that schedule more (some at the
  // current time): every event fires once, in (time, schedule order).
  Queue q;
  std::vector<SimTime> at;  // by schedule index
  const auto schedule = [&](SimTime t) {
    q.schedule_at(t, static_cast<int>(at.size()));
    at.push_back(t);
  };
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) schedule(static_cast<SimTime>(rng.below(20)));
  std::vector<int> fired;
  q.run([&](int ev) {
    fired.push_back(ev);
    if (at.size() < 2000) {
      schedule(q.now() + static_cast<SimTime>(rng.below(3)));
      if (rng.chance(0.5)) schedule(q.now() + static_cast<SimTime>(rng.below(3)));
    }
  });
  ASSERT_EQ(fired.size(), at.size());
  std::vector<char> seen(at.size(), 0);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    const auto ev = static_cast<std::size_t>(fired[i]);
    EXPECT_EQ(seen[ev], 0) << "event " << ev << " fired twice";
    seen[ev] = 1;
    if (i > 0) {
      const auto prev = static_cast<std::size_t>(fired[i - 1]);
      EXPECT_TRUE(at[prev] < at[ev] || (at[prev] == at[ev] && prev < ev))
          << "pop " << i << ": event " << ev << " after " << prev;
    }
  }
}

TEST(WaitProcess, RejectsBadInterval) {
  EXPECT_THROW(WaitProcess(-1.0, 5.0, 3, 1), std::invalid_argument);
  EXPECT_THROW(WaitProcess(5.0, 2.0, 3, 1), std::invalid_argument);
}

TEST(WaitProcess, MeansDrawnFromInterval) {
  WaitProcess w(2.0, 8.0, 1000, 9);
  for (std::size_t u = 0; u < 1000; ++u) {
    EXPECT_GE(w.mean_of(u), 2.0);
    EXPECT_LE(w.mean_of(u), 8.0);
  }
}

TEST(WaitProcess, DegenerateIntervalGivesExactMean) {
  WaitProcess w(15.0, 15.0, 10, 9);
  for (std::size_t u = 0; u < 10; ++u) EXPECT_DOUBLE_EQ(w.mean_of(u), 15.0);
}

TEST(WaitProcess, WaitsAreExponentialWithNodeMean) {
  WaitProcess w(4.0, 4.0, 1, 10);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += w.next_wait(0);
  EXPECT_NEAR(sum / kN, 4.0, 0.1);
}

TEST(WaitProcess, WaitsNonNegative) {
  WaitProcess w(0.0, 6.0, 5, 11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(w.next_wait(static_cast<std::size_t>(i % 5)), 0.0);
  }
}

TEST(LossModel, RejectsBadProbability) {
  EXPECT_THROW(LossModel(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(LossModel(1.1, 1), std::invalid_argument);
}

TEST(LossModel, AlwaysDeliversAtOne) {
  LossModel m(1.0, 2);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(m.delivered());
}

TEST(LossModel, NeverDeliversAtZero) {
  LossModel m(0.0, 2);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m.delivered());
}

TEST(LossModel, FrequencyMatchesProbability) {
  LossModel m(0.7, 3);
  int delivered = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) delivered += m.delivered() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.7, 0.01);
}

TEST(LossModel, StreamStaysAlignedAcrossProbabilities) {
  // p = 1 must still consume one RNG draw per send, so two same-seed models
  // that start at different loss levels make identical decisions once their
  // probabilities agree — the foundation of seed-for-seed comparability in
  // the chaos harness.
  LossModel lossless(1.0, 17);
  LossModel lossy(0.6, 17);
  constexpr int kWarmup = 5000;
  for (int i = 0; i < kWarmup; ++i) {
    EXPECT_TRUE(lossless.delivered());  // p = 1 never loses...
    (void)lossy.delivered();            // ...but both consume a draw
  }
  lossless.set_probability(0.35);
  lossy.set_probability(0.35);
  for (int i = 0; i < kWarmup; ++i) {
    EXPECT_EQ(lossless.delivered(), lossy.delivered()) << "send " << i;
  }
}

TEST(LossModel, SetProbabilityValidatesAndReports) {
  LossModel m(0.5, 4);
  EXPECT_DOUBLE_EQ(m.delivery_probability(), 0.5);
  m.set_probability(1.0);
  EXPECT_DOUBLE_EQ(m.delivery_probability(), 1.0);
  EXPECT_THROW(m.set_probability(-0.01), std::invalid_argument);
  EXPECT_THROW(m.set_probability(1.01), std::invalid_argument);
}

}  // namespace
}  // namespace p2prank::sim
