// Virtual clock: scaling, monotonicity, sleep semantics.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "util/sim_clock.hpp"

namespace mlpo {
namespace {

TEST(SimClock, RejectsNonPositiveScale) {
  EXPECT_THROW(SimClock(0.0), std::invalid_argument);
  EXPECT_THROW(SimClock(-1.0), std::invalid_argument);
}

TEST(SimClock, NowIsMonotonic) {
  SimClock clock(100.0);
  f64 prev = clock.now();
  for (int i = 0; i < 100; ++i) {
    const f64 t = clock.now();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(SimClock, ScaleMultipliesElapsedTime) {
  SimClock fast(1000.0);
  const f64 t0 = fast.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const f64 elapsed = fast.now() - t0;
  // 20 ms real at scale 1000 = 20 virtual seconds (generous tolerance for
  // scheduler jitter).
  EXPECT_GT(elapsed, 15.0);
  EXPECT_LT(elapsed, 60.0);
}

TEST(SimClock, SleepForAdvancesVirtualTime) {
  SimClock clock(2000.0);
  const f64 t0 = clock.now();
  clock.sleep_for(10.0);  // 5 ms real
  const f64 elapsed = clock.now() - t0;
  EXPECT_GE(elapsed, 10.0 * 0.95);
  EXPECT_LT(elapsed, 100.0);
}

TEST(SimClock, SleepForNonPositiveReturnsImmediately) {
  SimClock clock(1.0);
  const f64 t0 = clock.now();
  clock.sleep_for(0.0);
  clock.sleep_for(-5.0);
  EXPECT_LT(clock.now() - t0, 0.1);
}

TEST(SimClock, SleepUntilPastDeadlineReturnsImmediately) {
  SimClock clock(1000.0);
  const f64 t0 = clock.now();
  clock.sleep_until(t0 - 100.0);
  EXPECT_LT(clock.now() - t0, 5.0);
}

TEST(SimClock, SleepUntilWaitsForDeadline) {
  SimClock clock(2000.0);
  const f64 deadline = clock.now() + 20.0;
  clock.sleep_until(deadline);
  EXPECT_GE(clock.now(), deadline);
}

f64 thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<f64>(ts.tv_sec) + static_cast<f64>(ts.tv_nsec) * 1e-9;
}

// A wait of 2 ms real is spent asleep in the kernel, not spinning on a
// core: only the last ~100 us before each deadline may cost CPU. A clock
// that spins through the whole wait uses ~100% of the wall time here.
TEST(SimClock, SleepBlocksInsteadOfSpinning) {
  SimClock clock(1000.0);
  const auto wall0 = std::chrono::steady_clock::now();
  const f64 cpu0 = thread_cpu_seconds();
  for (int i = 0; i < 100; ++i) clock.sleep_for(2.0);  // 2 ms real each
  const f64 cpu = thread_cpu_seconds() - cpu0;
  const f64 wall = std::chrono::duration<f64>(
                       std::chrono::steady_clock::now() - wall0).count();
  EXPECT_GE(wall, 0.2);
  EXPECT_LE(cpu, 0.25 * wall) << "cpu " << cpu << " s over " << wall
                              << " s of sleeps";
}

// The kernel sleep ends a margin before the deadline and the spin covers
// the rest: no sleep returns before its deadline, and the median one
// returns well inside the margin after it.
TEST(SimClock, SleepsNeverWakeEarly) {
  constexpr f64 kScale = 1000.0;
  SimClock clock(kScale);
  std::vector<f64> late_real;
  for (int i = 0; i < 200; ++i) {
    const f64 wait_real = 0.3e-3 + 0.1e-3 * static_cast<f64>(i % 8);
    const f64 deadline = clock.now() + wait_real * kScale;
    clock.sleep_until(deadline);
    const f64 woke = clock.now();
    ASSERT_GE(woke, deadline) << "sleep " << i << " woke early";
    late_real.push_back((woke - deadline) / kScale);
  }
  std::nth_element(late_real.begin(), late_real.begin() + 100,
                   late_real.end());
  EXPECT_LE(late_real[100], 200e-6);
}

TEST(SimTimer, MeasuresElapsed) {
  SimClock clock(2000.0);
  SimTimer timer(clock);
  clock.sleep_for(8.0);
  EXPECT_GE(timer.elapsed(), 7.5);
  timer.reset();
  EXPECT_LT(timer.elapsed(), 2.0);
}

}  // namespace
}  // namespace mlpo
