// Metrics-registry suite: bucket math round-trips, percentile accuracy,
// the seqlock under a hostile writer (torture loop — also the TSan target
// for the registry's memory ordering), and cross-process visibility of a
// slot written by a forked child through a real ShmChannel binding.
#include "obs/metrics.hpp"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "obs/histogram.hpp"
#include "runtime/native_platform.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc::obs {
namespace {

TEST(HistBuckets, IndexBoundRoundTrip) {
  // Every bucket's own lower bound must land back in that bucket, and the
  // value just below the next bucket's lower bound must too.
  for (std::uint32_t i = 0; i < HistBuckets::kBuckets; ++i) {
    const std::uint64_t lo = HistBuckets::lower_bound(i);
    EXPECT_EQ(HistBuckets::index_of(lo), i) << "lower bound of bucket " << i;
    if (i + 1 < HistBuckets::kBuckets) {
      const std::uint64_t next = HistBuckets::lower_bound(i + 1);
      ASSERT_GT(next, lo) << "bounds must be strictly increasing";
      EXPECT_EQ(HistBuckets::index_of(next - 1), i)
          << "top value of bucket " << i;
    }
  }
}

TEST(HistBuckets, CoversFullRangeMonotonically) {
  EXPECT_EQ(HistBuckets::index_of(0), 0u);
  EXPECT_EQ(HistBuckets::index_of(~std::uint64_t{0}),
            HistBuckets::kBuckets - 1);
  // Exact counting below the linear threshold.
  for (std::uint64_t v = 0; v < HistBuckets::kLinear; ++v) {
    EXPECT_EQ(HistBuckets::index_of(v), v);
  }
}

TEST(HistBuckets, RelativeWidthBounded) {
  // Past the linear region every bucket is <= 12.5% of its lower bound wide
  // (3 mantissa bits) — the histogram's accuracy contract.
  for (std::uint32_t i = HistBuckets::kLinear; i + 1 < HistBuckets::kBuckets;
       ++i) {
    const double lo = static_cast<double>(HistBuckets::lower_bound(i));
    const double hi = static_cast<double>(HistBuckets::upper_bound(i));
    EXPECT_LE((hi - lo) / lo, 0.125 + 1e-9) << "bucket " << i;
  }
}

TEST(LogHistogram, PercentileWithinBucketWidth) {
  LogHistogram h;
  // Uniform 1..10000: p50 ~ 5000, p99 ~ 9900 — within 12.5% after bucketing.
  for (std::uint64_t v = 1; v <= 10'000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10'000u);
  EXPECT_NEAR(s.mean(), 5000.5, 5000.5 * 0.125);
  EXPECT_NEAR(s.percentile(50), 5000.0, 5000.0 * 0.125);
  EXPECT_NEAR(s.percentile(99), 9900.0, 9900.0 * 0.125);
  EXPECT_NEAR(s.percentile(100), 10'000.0, 10'000.0 * 0.125);
}

TEST(LogHistogram, WeightedRecordMatchesRepeated) {
  LogHistogram a;
  LogHistogram b;
  a.record(1234, 7);
  for (int i = 0; i < 7; ++i) b.record(1234);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.snapshot().sum, b.snapshot().sum);
  EXPECT_DOUBLE_EQ(a.snapshot().percentile(50), b.snapshot().percentile(50));
}

TEST(MetricSlot, BindBumpsGenerationAndZeroes) {
  MetricSlot slot{};
  slot.counters.sends += 5;
  slot.hist(HistKind::kRoundTripNs).record(100);
  slot.bind(SlotRole::kClient, 42);

  SlotSnapshot s;
  ASSERT_TRUE(slot.read_snapshot(&s));
  EXPECT_EQ(s.role, SlotRole::kClient);
  EXPECT_EQ(s.pid, 42u);
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(s.counters.sends, 0u) << "bind must zero the series";
  EXPECT_EQ(s.h(HistKind::kRoundTripNs).count, 0u);

  slot.reset_series();
  ASSERT_TRUE(slot.read_snapshot(&s));
  EXPECT_EQ(s.generation, 2u);
  EXPECT_EQ(s.pid, 42u) << "reset_series keeps ownership";
}

// Seqlock torture: one writer alternates hot-path adds with structural
// resets; a reader hammers read_snapshot. Invariant checked on every
// successful snapshot: within one generation the counter series is
// monotonic (a torn read across a reset would show generation g with
// counters from generation g-1 — i.e. a value DROP at equal generation).
TEST(MetricSlot, SeqlockTortureKeepsSnapshotsCoherent) {
  MetricSlot slot{};
  slot.bind(SlotRole::kServer, 1);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) {
        ++slot.counters.sends;
        slot.hist(HistKind::kRoundTripNs).record(1000 + i);
      }
      slot.reset_series();
    }
  });

  std::uint32_t prev_gen = 0;
  std::uint64_t prev_sends = 0;
  std::uint64_t coherent = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    SlotSnapshot s;
    if (!slot.read_snapshot(&s)) continue;  // writer kept resetting; retry
    ++coherent;
    ASSERT_GE(s.generation, prev_gen) << "generation must be monotonic";
    if (s.generation == prev_gen) {
      ASSERT_GE(s.counters.sends, prev_sends)
          << "counter dropped inside one generation: torn across a reset";
    }
    ASSERT_LE(s.counters.sends, 64u) << "counters from a stale generation";
    prev_gen = s.generation;
    prev_sends = s.counters.sends;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(coherent, 0u) << "reader never got a coherent snapshot";
}

// A forked child binds its slot through the real channel API and runs the
// hot-path update; the parent (a different process) must observe the
// child's identity and counts through the shared mapping.
TEST(MetricsRegistry, CrossProcessVisibilityThroughChannel) {
  ShmChannel::Config cfg;
  cfg.max_clients = 1;
  cfg.queue_capacity = 16;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  ASSERT_TRUE(channel.has_obs());

  constexpr std::uint64_t kSends = 12'345;
  ChildProcess child = ChildProcess::spawn([&] {
    NativePlatform plat;
    channel.bind_client_obs(plat, 0);
    for (std::uint64_t i = 0; i < kSends; ++i) {
      ++plat.counters().sends;
      plat.obs_round_trip(2'000, 1);
    }
    return 0;
  });
  const auto child_pid = static_cast<std::uint32_t>(child.pid());
  ASSERT_EQ(child.join(), 0);

  SlotSnapshot s;
  ASSERT_TRUE(
      channel.obs().slot(channel.client_obs_slot(0)).read_snapshot(&s));
  EXPECT_EQ(s.role, SlotRole::kClient);
  EXPECT_EQ(s.pid, child_pid);
  EXPECT_EQ(s.counters.sends, kSends);
  EXPECT_EQ(s.h(HistKind::kRoundTripNs).count, kSends);
  EXPECT_NEAR(s.h(HistKind::kRoundTripNs).percentile(50), 2'000.0,
              2'000.0 * 0.125);

  // The server slot was never bound: it must read as unbound and empty.
  SlotSnapshot srv;
  ASSERT_TRUE(
      channel.obs().slot(channel.server_obs_slot()).read_snapshot(&srv));
  EXPECT_FALSE(srv.bound());
  EXPECT_EQ(srv.counters.sends, 0u);
}

TEST(MetricsRegistry, ObsHeaderLayoutIsSelfContained) {
  // A plain channel (no pool workers) and a pool channel.
  for (const std::uint32_t shards : {0u, 2u}) {
    ShmChannel::Config cfg;
    cfg.max_clients = 3;
    cfg.queue_capacity = 16;
    cfg.shards = shards;
    ShmRegion region =
        ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    ShmChannel channel = ShmChannel::create(region, cfg);

    const ObsHeader& oh = channel.obs();
    EXPECT_EQ(oh.magic, ObsHeader::kMagic);
    EXPECT_EQ(oh.version, ObsHeader::kVersion);
    // server + clients + pool workers, plus the shared recovery ring.
    EXPECT_EQ(oh.slot_count, 1u + cfg.max_clients + shards);
    EXPECT_EQ(oh.ring_count(), oh.slot_count + 1u);
    if (shards > 0) {
      EXPECT_EQ(channel.duplex_obs_slot(shards - 1), oh.slot_count - 1);
    }
    EXPECT_EQ(oh.trace_compiled != 0, kTraceCompiledIn);
    // The stamped calibration must be usable (positive tick ratio).
    const double ns_per_tick = std::bit_cast<double>(
        oh.tsc_ns_per_tick_bits.load(std::memory_order_relaxed));
    EXPECT_GT(ns_per_tick, 0.0);
  }
}

}  // namespace
}  // namespace ulipc::obs
