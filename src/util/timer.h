// Wall-clock timing helpers used throughout the benchmark harnesses.

#ifndef FXRZ_UTIL_TIMER_H_
#define FXRZ_UTIL_TIMER_H_

#include <chrono>

namespace fxrz {

// Simple monotonic stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fxrz

#endif  // FXRZ_UTIL_TIMER_H_
