#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace erms::sim {
namespace {

TEST(SimTime, ArithmeticAndConversion) {
  const SimTime t{2'500'000};
  EXPECT_DOUBLE_EQ(t.seconds(), 2.5);
  EXPECT_EQ((t + seconds(1.5)).micros(), 4'000'000);
  EXPECT_EQ((t - seconds(0.5)).micros(), 2'000'000);
  EXPECT_EQ((SimTime{5'000'000} - t).micros(), 2'500'000);
}

TEST(SimTime, DurationHelpers) {
  EXPECT_EQ(micros(7).micros(), 7);
  EXPECT_EQ(millis(3).micros(), 3000);
  EXPECT_EQ(seconds(2.0).micros(), 2'000'000);
  EXPECT_EQ(minutes(1.0).micros(), 60'000'000);
  EXPECT_EQ(hours(1.0).micros(), 3'600'000'000ll);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime{1}, SimTime{2});
  EXPECT_LE(SimTime{2}, SimTime{2});
  EXPECT_GT(seconds(2.0), seconds(1.0));
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{30}, [&] { fired.push_back(3); });
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{20}, [&] { fired.push_back(2); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{10}, [&] { fired.push_back(2); });
  q.schedule(SimTime{10}, [&] { fired.push_back(3); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.schedule(SimTime{10}, [&] { ++fired; });
  q.schedule(SimTime{20}, [&] { ++fired; });
  h.cancel();
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EmptyAfterAllCancelled) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime{10}, [] {});
  EXPECT_FALSE(q.empty());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandlePendingLifecycle) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime{10}, [] {});
  EXPECT_TRUE(h.pending());
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  EXPECT_NO_FATAL_FAILURE(h.cancel());  // cancel after fire is a no-op
}

TEST(EventQueue, ReservedSequenceKeepsItsPlace) {
  // An event scheduled with a reserved number sorts among same-time events
  // as if it had been scheduled when the number was reserved.
  EventQueue q;
  std::vector<std::string> fired;
  const SimTime t{10};
  q.schedule(t, [&] { fired.emplace_back("before"); });
  const std::uint64_t r = q.reserve_seq();
  q.schedule(t, [&] { fired.emplace_back("A"); });
  q.schedule_reserved(t, r, [&] { fired.emplace_back("B"); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<std::string>{"before", "B", "A"}));
}

TEST(EventQueue, UnusedReservationChangesNoOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  (void)q.reserve_seq();
  (void)q.reserve_seq();
  q.schedule(SimTime{10}, [&] { fired.push_back(2); });
  q.schedule(SimTime{5}, [&] { fired.push_back(0); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(Simulation, ScheduleAtReservedKeepsItsPlace) {
  Simulation sim;
  std::vector<int> fired;
  const std::uint64_t r = sim.reserve_seq();
  sim.schedule_after(micros(0), [&] { fired.push_back(2); });
  sim.schedule_at_reserved(SimTime{0}, r, [&] { fired.push_back(1); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(Simulation, PreReadHookRunsBeforeEveryPop) {
  Simulation sim;
  std::vector<std::string> log;
  const std::uint64_t id = sim.add_pre_read_hook([&] { log.emplace_back("hook"); });
  sim.schedule_after(seconds(1.0), [&] { log.emplace_back("e1"); });
  sim.schedule_after(seconds(2.0), [&] { log.emplace_back("e2"); });
  sim.run();
  // One read per pop plus the read that finds the queue empty.
  EXPECT_EQ(log, (std::vector<std::string>{"hook", "e1", "hook", "e2", "hook"}));
  sim.remove_pre_read_hook(id);
  log.clear();
  sim.schedule_after(seconds(1.0), [&] { log.emplace_back("e3"); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"e3"}));
}

TEST(Simulation, PreReadHookRunsBeforeRunUntilClockJump) {
  // On an otherwise empty queue, work a hook schedules for now runs at now,
  // not at the deadline the clock would otherwise jump to.
  Simulation sim;
  bool armed = true;
  SimTime ran_at{-1};
  sim.add_pre_read_hook([&] {
    if (armed) {
      armed = false;
      sim.schedule_at(sim.now(), [&] { ran_at = sim.now(); });
    }
  });
  sim.run_until(SimTime{5'000'000});
  EXPECT_EQ(ran_at, SimTime{0});
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
}

TEST(Simulation, PreReadHookRunsBeforeJumpAfterStop) {
  Simulation sim;
  int hook_runs_after_stop = 0;
  bool stopped = false;
  sim.add_pre_read_hook([&] { hook_runs_after_stop += stopped ? 1 : 0; });
  sim.schedule_after(seconds(1.0), [&] {
    stopped = true;
    sim.stop();
  });
  sim.run_until(SimTime{5'000'000});
  EXPECT_EQ(hook_runs_after_stop, 1);
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen;
  sim.schedule_after(seconds(5.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{5'000'000});
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_after(seconds(1.0), [&] {
    times.push_back(sim.now().seconds());
    sim.schedule_after(seconds(1.0), [&] { times.push_back(sim.now().seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(1.0), [&] { ++fired; });
  sim.schedule_after(seconds(10.0), [&] { ++fired; });
  sim.run_until(SimTime{5'000'000});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilAdvancesClockPastEmptyQueue) {
  Simulation sim;
  sim.run_until(SimTime{42});
  EXPECT_EQ(sim.now(), SimTime{42});
}

TEST(Simulation, StopBreaksRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(1.0), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(seconds(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim;
  sim.schedule_after(seconds(5.0), [] {});
  sim.run();
  SimTime seen;
  sim.schedule_at(SimTime{0}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{5'000'000});
}

TEST(Simulation, CountsEvents) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(micros(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, PoissonZeroMean) {
  Rng rng{5};
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument); }

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf{100, 1.2};
  double sum = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) {
    sum += zipf.pmf(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfMonotoneDecreasing) {
  ZipfDistribution zipf{50, 1.0};
  for (std::size_t k = 2; k <= 50; ++k) {
    EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
  }
}

TEST(Zipf, SampleMatchesPmfHead) {
  ZipfDistribution zipf{100, 1.1};
  Rng rng{99};
  const int n = 50000;
  int rank1 = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t k = zipf.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
    rank1 += k == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(rank1) / n, zipf.pmf(1), 0.02);
}

/// Property sweep: the head-probability of the distribution follows the
/// exponent across a range of exponents.
class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, HeavierTailForSmallerExponent) {
  const double s = GetParam();
  ZipfDistribution zipf{1000, s};
  // P(rank<=10) grows with the exponent.
  double head = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    head += zipf.pmf(k);
  }
  ZipfDistribution flatter{1000, s - 0.3};
  double flatter_head = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    flatter_head += flatter.pmf(k);
  }
  EXPECT_GT(head, flatter_head);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.8, 1.0, 1.2, 1.5, 2.0));

}  // namespace
}  // namespace erms::sim
