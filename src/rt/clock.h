// Model-tick <-> wall-clock mapping for the real-time runtime.
//
// The simulator's global time is a loop counter; here it is real time,
// discretized: tick k covers the half-open wall-clock interval
// [start + k*tick_us, start + (k+1)*tick_us). Every thread reads the same
// steady clock, so ticks give the whole run one coherent time axis without
// any shared mutable state. Note the mapping is *observational*: nothing
// stops the OS from preempting a thread across several ticks — the runtime
// measures the realized scheduling bound afterwards instead of promising
// one up front (see rt/driver.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "sim/types.h"

namespace asyncgossip {

class TickClock {
 public:
  explicit TickClock(std::uint64_t tick_us)
      : tick_(std::chrono::microseconds(tick_us == 0 ? 1 : tick_us)),
        start_(std::chrono::steady_clock::now()) {}

  /// The tick containing "now". Monotone across calls on every thread.
  Time now_tick() const {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return static_cast<Time>(elapsed / tick_);
  }

  /// Blocks until the start of tick `t` (returns immediately if past it).
  void sleep_until_tick(Time t) const {
    std::this_thread::sleep_until(start_ + t * tick_);
  }

  std::uint64_t tick_us() const {
    return static_cast<std::uint64_t>(tick_.count());
  }

 private:
  std::chrono::microseconds tick_;
  std::chrono::steady_clock::time_point start_;
};

/// Wall-clock interval measurement for run reporting. This file is the
/// only place the runtime may read a real clock (aglint rule AG-DET-002):
/// routing every wall-clock read through TickClock/Stopwatch keeps the
/// nondeterministic inputs of a run enumerable in one header.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Milliseconds elapsed since construction.
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Microseconds elapsed since construction — integer, for per-request
  /// latency samples (svc commit latency percentiles).
  std::uint64_t elapsed_us() const { return us_until(Stopwatch{}); }

  /// Microseconds from this stopwatch's start to `later`'s, so that many
  /// samples can share one clock read (the svc commit thread times a whole
  /// batch against one).
  std::uint64_t us_until(const Stopwatch& later) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(later.start_ -
                                                              start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace asyncgossip
