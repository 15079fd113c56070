#include "util/sim_clock.hpp"

#include <time.h>

#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace mlpo {

namespace {

// A waiter sleeps in the kernel until this much real time before its
// deadline and spins the rest. It has to cover the kernel's wake-up
// lateness: with 1 ns timer slack, 300-1000 us sleeps on a 4-core VM woke
// p50 6-15 us, p90 15-34 us and p99 50-180 us late. A narrower margin
// hands more of that lateness to virtual time (at 30 us, mlp_40b's
// iter_s_p50 drifted +7%); a wider one spins for longer (a 2.5 ms window
// cost mlp_40b 0.55 CPU-s per ~0.18 s iteration).
constexpr f64 kKernelMarginRealSecs = 100e-6;
// Inside the margin: yield-spin, then pause-spin the last few
// microseconds so the wakeup lands within ~1 us of the deadline.
constexpr f64 kBusyWindowRealSecs = 25e-6;

// Sleeps the calling thread until `wake` on steady_clock. The kernel defers
// a sleeper's wake-up by up to its timer slack (50 us by default) to batch
// timer interrupts; with it, the sleeps above woke p50 62 us and p99 268 us
// late, so the first call on a thread sets that thread's slack to 1 ns.
// The sleep is absolute on CLOCK_MONOTONIC (steady_clock's clock), so a
// preemption between computing the target and entering the kernel does
// not push the wake-up back; libstdc++'s this_thread::sleep_until would
// re-derive a relative sleep from a fresh now(). An early return (EINTR)
// only sends the caller round its loop again.
void sleep_in_kernel_until(std::chrono::steady_clock::time_point wake) {
#ifdef __linux__
  [[maybe_unused]] thread_local const int slack_set =
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      wake.time_since_epoch()).count();
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
}

}  // namespace

SimClock::SimClock(f64 time_scale)
    : epoch_(std::chrono::steady_clock::now()), time_scale_(time_scale) {
  if (time_scale <= 0.0) {
    throw std::invalid_argument("SimClock: time_scale must be positive");
  }
}

f64 SimClock::now() const {
  const auto real =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - epoch_);
  return real.count() * time_scale_;
}

void SimClock::sleep_for(f64 virtual_secs) const {
  if (virtual_secs <= 0.0) return;
  sleep_until(now() + virtual_secs);
}

void SimClock::sleep_until(f64 virtual_time) const {
  for (;;) {
    const f64 remaining_real = (virtual_time - now()) / time_scale_;
    if (remaining_real <= 0.0) return;
    if (remaining_real > kKernelMarginRealSecs) {
      sleep_in_kernel_until(
          epoch_ +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<f64>(virtual_time / time_scale_ -
                                         kKernelMarginRealSecs)));
    } else if (remaining_real > kBusyWindowRealSecs) {
      std::this_thread::yield();
    } else {
      // Busy spin with pause: no syscalls, so short waiters do not storm
      // the scheduler and preempt compute threads.
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
}

}  // namespace mlpo
