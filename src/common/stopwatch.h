#ifndef SWEETKNN_COMMON_STOPWATCH_H_
#define SWEETKNN_COMMON_STOPWATCH_H_

#include <chrono>

namespace sweetknn {

/// Wall-clock stopwatch for host-side timing (the simulator reports its
/// own simulated device time separately).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Seconds from `from` to `to` on the steady clock, for latency
/// observations that share one timestamp between two stages.
inline double SecondsBetween(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace sweetknn

#endif  // SWEETKNN_COMMON_STOPWATCH_H_
