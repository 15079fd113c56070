// Virtual time base for scaled-time emulation.
//
// The paper's experiments run iterations of 100-600 wall-clock seconds
// against real NVMe/PFS hardware. This library reproduces those experiments
// by expressing every modelled duration (tier transfers, GPU compute, CPU
// update cost beyond the real kernel time) in *virtual seconds* and mapping
// them onto real time through a configurable `time_scale` (virtual seconds
// per real second). All threads, locks and queues remain native, so overlap
// and contention behave exactly as they would at scale — only compressed.
//
// With time_scale == 1 the clock degrades gracefully to wall-clock time and
// the library behaves as a genuine offloading engine.
#pragma once

#include <chrono>

#include "util/common.hpp"

namespace mlpo {

class SimClock {
 public:
  /// @param time_scale virtual seconds that elapse per real second. Must be
  ///        > 0. Typical emulation value: 2000 (a 600 s paper iteration runs
  ///        in 0.3 s).
  explicit SimClock(f64 time_scale = 1.0);

  f64 time_scale() const { return time_scale_; }

  /// Virtual seconds elapsed since this clock was constructed.
  f64 now() const;

  /// Block the calling thread for `virtual_secs` of virtual time.
  void sleep_for(f64 virtual_secs) const;

  /// Block until the virtual clock reads at least `virtual_time`. Returns
  /// only once now() >= virtual_time, typically within ~1 us real of it.
  /// The thread sleeps in the kernel until 100 us real before the deadline
  /// and spins only that margin, so a wait costs a core only for its last
  /// 100 us; the first wait on a thread sets that thread's timer slack to
  /// 1 ns (Linux) so the kernel wakes it on time. This is the one place in
  /// src/ that waits on real time (lint invariant #12).
  void sleep_until(f64 virtual_time) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  f64 time_scale_;
};

/// Scoped virtual-time stopwatch.
class SimTimer {
 public:
  explicit SimTimer(const SimClock& clock) : clock_(&clock), start_(clock.now()) {}
  f64 elapsed() const { return clock_->now() - start_; }
  void reset() { start_ = clock_->now(); }

 private:
  const SimClock* clock_;
  f64 start_;
};

}  // namespace mlpo
