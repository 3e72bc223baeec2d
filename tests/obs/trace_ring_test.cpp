// Trace-ring suite: emit/readback fidelity, wrap-around keeping only the
// newest lap, torn-record rejection under a concurrent writer, and the
// recovery satellite — reclaiming a dead client must bump the channel's
// RecoveryCounters and (when tracing is compiled in) log a kRecovery event
// to the shared recovery ring.
#include "obs/trace_ring.hpp"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "queue/msg_pool.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"
#include "support/node_engine.hpp"

namespace ulipc::obs {
namespace {

/// A ring formatted over heap storage (the shm path is covered by the
/// channel test below; the protocol is identical).
class RingFixture {
 public:
  explicit RingFixture(std::uint32_t capacity)
      : blob_(TraceRing::bytes_for(capacity)),
        ring_(TraceRing::format(blob_.data(), capacity)) {}
  TraceRing& ring() { return *ring_; }

 private:
  std::vector<char> blob_;
  TraceRing* ring_;
};

TEST(TraceRing, EmitReadbackPreservesOrderAndPayload) {
  RingFixture f(16);
  for (std::uint32_t i = 0; i < 10; ++i) {
    f.ring().emit(TraceEvent::kEnqueue, /*slot_id=*/3, /*a=*/i,
                  /*b=*/100 + i);
  }
  const auto recs = f.ring().read_all();
  ASSERT_EQ(recs.size(), 10u);
  std::uint64_t prev_tsc = 0;
  for (std::uint32_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seqno, i + 1);
    EXPECT_EQ(recs[i].event, TraceEvent::kEnqueue);
    EXPECT_EQ(recs[i].slot, 3u);
    EXPECT_EQ(recs[i].arg_a, i);
    EXPECT_EQ(recs[i].arg_b, 100u + i);
    EXPECT_GE(recs[i].tsc, prev_tsc) << "timestamps must be non-decreasing";
    prev_tsc = recs[i].tsc;
  }
}

TEST(TraceRing, WrapKeepsOnlyTheNewestLap) {
  constexpr std::uint32_t kCap = 8;
  RingFixture f(kCap);
  constexpr std::uint64_t kTotal = 3 * kCap + 5;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    f.ring().emit(TraceEvent::kDequeue, 0, static_cast<std::uint32_t>(i));
  }
  const auto recs = f.ring().read_all();
  ASSERT_EQ(recs.size(), kCap) << "a full ring returns exactly one lap";
  for (std::uint32_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(recs[i].seqno, kTotal - kCap + i + 1)
        << "oldest surviving record must be head - capacity";
  }
}

TEST(TraceRing, EmptyRingReadsEmpty) {
  RingFixture f(8);
  EXPECT_TRUE(f.ring().read_all().empty());
}

// Reader racing a fast writer: every record the reader accepts must be
// internally consistent (seqno names its position and arg_a echoes the
// seqno the writer stored), i.e. overwrites are detected, never blended.
TEST(TraceRing, ConcurrentReaderNeverSeesTornRecords) {
  constexpr std::uint32_t kCap = 16;  // small: maximum overwrite pressure
  RingFixture f(kCap);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // arg_a mirrors the 1-based seqno so the reader can cross-check.
      f.ring().emit(TraceEvent::kSleepBegin, 7, ++i);
    }
  });

  std::uint64_t validated = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const TraceRecordView& v : f.ring().read_all()) {
      ASSERT_EQ(v.arg_a, v.seqno)
          << "payload from one lap, seqno from another: torn record";
      ASSERT_EQ(v.event, TraceEvent::kSleepBegin);
      ASSERT_EQ(v.slot, 7u);
      ++validated;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(validated, 0u) << "reader never validated a single record";
}

// Satellite: reclaiming a crashed client is recorded in the registry's
// RecoveryCounters and in the shared recovery ring (ring index slot_count),
// so post-mortem `ulipc-stat` runs can see that recovery happened at all.
TEST(TraceRing, ReclaimOfDeadClientIsRecordedInRegistry) {
  ShmChannel::Config cfg;
  cfg.max_clients = 1;
  cfg.queue_capacity = 16;
  cfg.engines.server = test::node_engine_from_env();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  ASSERT_TRUE(channel.has_obs());

  // Child leaks one pool node (allocate, then exit before linking it).
  ChildProcess victim = ChildProcess::spawn([&] {
    return channel.node_pool().allocate() != kNullIndex ? 0 : 1;
  });
  channel.register_client_pid(0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);
  ASSERT_TRUE(channel.client_crashed(0));

  const ShmChannel::ReclaimStats rs = channel.reclaim_client(0);
  EXPECT_EQ(rs.nodes_reclaimed, 1u);

  const ObsHeader& oh = channel.obs();
  EXPECT_EQ(oh.recovery.sweeps.load(), 1u);
  EXPECT_EQ(oh.recovery.nodes_reclaimed.load(), rs.nodes_reclaimed);
  EXPECT_EQ(oh.recovery.drained_messages.load(), rs.drained_messages);

  const auto* recovery_ring =
      static_cast<const TraceRing*>(oh.ring_blob(oh.slot_count));
  const auto recs = recovery_ring->read_all();
  if (kTraceCompiledIn) {
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].event, TraceEvent::kRecovery);
    EXPECT_EQ(recs[0].slot, 0u) << "arg: which client seat was swept";
  } else {
    EXPECT_TRUE(recs.empty()) << "no emission when ULIPC_TRACE=OFF";
  }

  // A second sweep of the (now clean) seat still counts as a sweep pass
  // but reclaims nothing.
  channel.register_client_pid(0, static_cast<std::uint32_t>(victim.pid()));
  const ShmChannel::ReclaimStats rs2 = channel.reclaim_client(0);
  EXPECT_EQ(rs2.nodes_reclaimed, 0u);
  EXPECT_EQ(oh.recovery.sweeps.load(), 2u);
  EXPECT_EQ(oh.recovery.nodes_reclaimed.load(), rs.nodes_reclaimed);
}

}  // namespace
}  // namespace ulipc::obs
