// Wall-clock and delay-loop utilities.
//
// Throughput numbers in the paper are computed from "real elapsed time from
// the first message request until the last client disconnects"; we use
// CLOCK_MONOTONIC for that. The multiprocessor experiments additionally need
// a busy-wait delay loop ("25 usec" poll slices, paper §5), which must burn
// CPU without making system calls.
#pragma once

#include <cstdint>
#include <ctime>

namespace ulipc {

/// Nanoseconds since an arbitrary monotonic epoch.
inline std::int64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// CPU time (user+system) consumed by the calling thread, in nanoseconds.
inline std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// Busy-wait delay loop: spins until a CLOCK_MONOTONIC deadline `ns`
/// nanoseconds away, so a call never returns early and needs no calibration.
/// On Linux with a TSC clocksource now_ns() is a vDSO read (tens of ns), so
/// the loop makes no system calls.
class DelayLoop {
 public:
  static void spin_ns(std::int64_t ns) noexcept {
    const std::int64_t deadline = now_ns() + ns;
    while (now_ns() < deadline) {
    }
  }
};

/// Raw timestamp counter for trace records: rdtsc where available (one
/// instruction, no syscall, monotonic-enough on modern invariant-TSC
/// hardware), CLOCK_MONOTONIC elsewhere. Ticks are meaningless until
/// converted through a Calibration.
class TscClock {
 public:
#if defined(__x86_64__) || defined(__i386__)
  static constexpr bool kIsRdtsc = true;
  static std::uint64_t now() noexcept { return __builtin_ia32_rdtsc(); }
#else
  static constexpr bool kIsRdtsc = false;
  static std::uint64_t now() noexcept {
    return static_cast<std::uint64_t>(now_ns());
  }
#endif

  /// One-shot steady-clock-vs-TSC ratio measurement: sample both clocks
  /// across a short delay and take the ratio. Converting a tick `t` to
  /// CLOCK_MONOTONIC nanoseconds is then deterministic:
  ///   ns = mono_epoch_ns + (t - tsc_epoch) * ns_per_tick.
  struct Calibration {
    double ns_per_tick = 1.0;
    std::uint64_t tsc_epoch = 0;
    std::int64_t mono_epoch_ns = 0;

    [[nodiscard]] std::int64_t to_mono_ns(std::uint64_t tsc) const noexcept {
      const double dt =
          static_cast<double>(static_cast<std::int64_t>(tsc - tsc_epoch));
      return mono_epoch_ns + static_cast<std::int64_t>(dt * ns_per_tick);
    }
  };

  /// Measures the ratio over ~2 ms (long enough to dwarf the per-sample
  /// cost of either clock). On non-rdtsc fallbacks the ratio is exactly 1.
  static Calibration calibrate() noexcept {
    Calibration c;
    c.tsc_epoch = now();
    c.mono_epoch_ns = now_ns();
    if constexpr (!kIsRdtsc) return c;  // ticks ARE nanoseconds
    const std::int64_t t_end = c.mono_epoch_ns + 2'000'000;
    std::int64_t mono = c.mono_epoch_ns;
    while (mono < t_end) mono = now_ns();
    const std::uint64_t tsc = now();
    const auto dt = static_cast<double>(tsc - c.tsc_epoch);
    c.ns_per_tick =
        dt > 0.0 ? static_cast<double>(mono - c.mono_epoch_ns) / dt : 1.0;
    return c;
  }

  /// Process-wide cached calibration (first use pays the ~2 ms measurement).
  static const Calibration& cached() noexcept {
    static const Calibration c = calibrate();
    return c;
  }
};

/// Simple scoped stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() noexcept { start_ = now_ns(); }
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  [[nodiscard]] double elapsed_us() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1e3;
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  std::int64_t start_;
};

}  // namespace ulipc
