// Wall-clock stopwatch for the running-time experiments (Fig. 8).
#pragma once

#include <chrono>
#include <ctime>

namespace ccdn {

class Stopwatch {
 public:
  // ccdn-lint: allow(nondet-clock) -- timing telemetry only (Fig. 8 running
  // time); elapsed values are reported, never fed into a scheduling decision
  Stopwatch() noexcept : start_(Clock::now()) {}

  // ccdn-lint: allow(nondet-clock) -- timing telemetry only, see ctor
  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    // ccdn-lint: allow(nondet-clock) -- timing telemetry only, see ctor
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_millis() const noexcept {
    return elapsed_seconds() * 1e3;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time consumed by the calling thread. Used by the sharded solver's
/// per-shard solves: when more shards than cores run at once, the kernel
/// time-slices them and wall clocks inflate with the shard count, but each
/// shard's thread-CPU time stays the cost a dedicated core (the production
/// per-machine deployment) would pay. Falls back to the wall clock where
/// the POSIX clock is unavailable.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() noexcept : start_(now()) {}

  void reset() noexcept { start_ = now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return now() - start_;
  }

 private:
  [[nodiscard]] static double now() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    std::timespec ts{};
    // ccdn-lint: allow(nondet-clock) -- per-thread CPU timing telemetry for
    // the shard-executor cost model; reported, never a scheduling input
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               // ccdn-lint: allow(nondet-clock) -- wall fallback for the
               // telemetry clock above; same display-only contract
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_ = 0.0;
};

}  // namespace ccdn
