#include "common/clock.hpp"

#include <gtest/gtest.h>

namespace ulipc {
namespace {

TEST(Clock, MonotonicNonDecreasing) {
  std::int64_t prev = now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = now_ns();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Clock, ThreadCpuAdvancesUnderWork) {
  // The thread CPU clock may be coarse on sandboxed kernels; spin in rounds
  // until it visibly advances (bounded by a generous total).
  const std::int64_t before = thread_cpu_ns();
  std::int64_t after = before;
  for (int round = 0; round < 100 && after <= before; ++round) {
    DelayLoop::spin_ns(2'000'000);  // 2 ms of spinning per round
    after = thread_cpu_ns();
  }
  EXPECT_GT(after, before);
}

TEST(DelayLoop, SpinNeverReturnsEarly) {
  // spin_ns waits for a clock deadline: however loaded the host, no call
  // may return before its requested duration has passed (it may overrun).
  for (const std::int64_t ns : {1'000LL, 25'000LL, 300'000LL, 5'000'000LL}) {
    for (int i = 0; i < 5; ++i) {
      const std::int64_t t0 = now_ns();
      DelayLoop::spin_ns(ns);
      EXPECT_GE(now_ns() - t0, ns) << "spin_ns(" << ns << ") returned early";
    }
  }
}

TEST(TscClock, TicksAdvance) {
  const std::uint64_t a = TscClock::now();
  DelayLoop::spin_ns(100'000);
  EXPECT_GT(TscClock::now(), a);
}

TEST(TscClock, CalibrationConvertsTicksToMonotonicNs) {
  const TscClock::Calibration cal = TscClock::calibrate();
  EXPECT_GT(cal.ns_per_tick, 0.0);
  // Round trip: a fresh tick converted through the calibration must land
  // near the steady clock "now". 10 ms tolerance absorbs scheduling noise
  // on a loaded single-core host (the drift itself is microseconds).
  const std::uint64_t t = TscClock::now();
  const std::int64_t mono = now_ns();
  EXPECT_NEAR(static_cast<double>(cal.to_mono_ns(t)),
              static_cast<double>(mono), 10e6);
  // Epochs anchor the mapping: converting the epoch tick gives the epoch ns.
  EXPECT_EQ(cal.to_mono_ns(cal.tsc_epoch), cal.mono_epoch_ns);
}

TEST(TscClock, CachedCalibrationIsStable) {
  const TscClock::Calibration& a = TscClock::cached();
  const TscClock::Calibration& b = TscClock::cached();
  EXPECT_EQ(&a, &b) << "cached() must return one process-wide instance";
  EXPECT_GT(a.ns_per_tick, 0.0);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  DelayLoop::spin_ns(1'000'000);
  EXPECT_GT(sw.elapsed_ns(), 0);
  EXPECT_GT(sw.elapsed_us(), 0.0);
  EXPECT_GE(sw.elapsed_ms(), 0.0);
  const double before = sw.elapsed_ms();
  sw.reset();
  EXPECT_LE(sw.elapsed_ms(), before + 1.0);
}

}  // namespace
}  // namespace ulipc
