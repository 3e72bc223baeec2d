// Crash points on a pool channel's client reply rings. Every worker that
// answers a client — the shard owner, a thief, a reaper serving a dead
// worker's backlog — writes that client's ring under the ring's producer
// lock, so a worker can die holding it:
//   * at kRingEnqueueSlot (slot written, head not yet published): the next
//     replier steals the lock and overwrites the unpublished slot, with no
//     repair step, and the client receives every later reply;
//   * after publishing a payload-bearing reply: the reply sits in a live
//     client's ring with a dead holder's payload slot, which the recovery
//     sweep must keep until the client has read it.
// The invariant checker's sleep/wake test must read the ring, too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/bsw.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::Point;
using explore::run_victim_to_crash;

/// Cross-process results of the client.
struct RingCrashOut {
  std::atomic<std::uint32_t> client_done{0};
  std::uint64_t verified = 0;
  std::uint64_t payload_bytes = 0;
};

class PoolReplyRingCrashTest : public ::testing::Test {
 protected:
  PoolReplyRingCrashTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 2;  // one client seat stays empty: shards <= seats
    cfg.queue_capacity = 16;
    cfg.shards = 2;  // payload plane on by default (4 KiB max)
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    out_region_ = ShmRegion::create_anonymous(4096);
    out_ = new (out_region_.base()) RingCrashOut();
    plane_ = channel_->payload_plane();
    nfree0_ = channel_->node_pool().free_count();
    pfree0_ = plane_->free_count();
  }

  NativeEndpoint& reply_ep() { return channel_->client_endpoint(0); }

  explore::InvariantReport invariants() {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), plane_);
  }

  ShmRegion region_;
  ShmRegion out_region_;
  std::optional<ShmChannel> channel_;
  RingCrashOut* out_ = nullptr;
  PayloadPool* plane_ = nullptr;
  std::uint32_t nfree0_ = 0;
  std::uint32_t pfree0_ = 0;
};

TEST_F(PoolReplyRingCrashTest, WorkerKilledAtRingSlotIsStolenAndServed) {
  constexpr std::uint64_t kMessages = 200;
  constexpr std::uint32_t kBytes = 256;

  // The doomed reply: a payload-bearing request for client 0 already waits
  // in shard 0. The (live) parent holds the payload loan.
  const std::uint64_t token = plane_->loan(kBytes);
  ASSERT_NE(token, PayloadPool::kNoPayload);
  std::memset(plane_->data(token), 'v', kBytes);
  plane_->publish(token, kBytes);
  ASSERT_TRUE(channel_->shard_endpoint(0).queue->enqueue(
      Message(Op::kEcho, 0, -1.0, token)));

  // Worker 0 serves it and dies writing the reply into client 0's ring:
  // slot written, head unpublished, producer lock held by the corpse.
  ChildProcess victim = run_victim_to_crash(Point::kRingEnqueueSlot, 1, [&] {
    ServerPoolOptions o;
    o.expected_clients = 1;
    o.steal_batch = 0;
    (void)run_pool_worker(*channel_, Bsw<NativePlatform>(), 0, o);
  });
  const auto victim_pid = static_cast<std::uint32_t>(victim.pid());
  channel_->register_worker_pid(0, victim_pid);
  ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";
  SpscRing& ring = *reply_ep().ring;
  EXPECT_EQ(ring.producer_lock().owner(), victim_pid)
      << "the victim died holding the producer lock";
  EXPECT_TRUE(ring.empty()) << "the written slot was never published";

  // Worker 1 survives and answers client 0: its first reply needs the
  // corpse's producer lock.
  ChildProcess survivor = ChildProcess::spawn([&] {
    ServerPoolOptions o;
    o.expected_clients = 1;
    o.liveness_timeout_ns = 20'000'000;
    o.steal_batch = 0;
    (void)run_pool_worker(*channel_, Bsw<NativePlatform>(), 1, o);
    return 0;
  });
  channel_->register_worker_pid(1, static_cast<std::uint32_t>(survivor.pid()));
  ChildProcess client = ChildProcess::spawn([&] {
    NativePlatform plat;
    Bsw<NativePlatform> proto;
    pool_client_connect(plat, proto, *channel_, 0,
                        PlacementPolicy::kLeastLoaded, /*forced_shard=*/1);
    std::uint64_t bytes = 0;
    out_->verified = pool_client_echo_loop_windowed_loaned(
        plat, proto, *channel_, 0, kMessages, /*window=*/4,
        [] { return kBytes; }, &bytes);
    out_->payload_bytes = bytes;
    pool_client_disconnect(plat, proto, *channel_, 0);
    out_->client_done.store(1, std::memory_order_release);
    return 0;
  });
  channel_->register_client_pid(0, static_cast<std::uint32_t>(client.pid()));

  // A lock nobody could steal would hang the client: bound the wait.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (out_->client_done.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (out_->client_done.load(std::memory_order_acquire) == 0) {
    client.kill();
    survivor.kill();
  }
  ASSERT_EQ(client.join(), 0) << "client never got its replies";
  ASSERT_EQ(survivor.join(), 0);

  EXPECT_EQ(out_->verified, kMessages);
  EXPECT_EQ(out_->payload_bytes, kMessages * kBytes);
  EXPECT_EQ(ring.producer_lock().steal_count(), 1u)
      << "the survivor's first reply steals the corpse's producer lock";
  EXPECT_EQ(ring.producer_lock().owner(), 0u);
  EXPECT_TRUE(ring.empty());

  plane_->release(token);
  EXPECT_EQ(channel_->node_pool().free_count(), nfree0_);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(PoolReplyRingCrashTest, SweepPinsPayloadPendingInLiveClientsRing) {
  constexpr std::uint32_t kBytes = 512;
  // A replier loans a payload, publishes a reply carrying it into client
  // 0's ring and dies before the client reads it (still holding the
  // producer lock). The slot's holder is dead, but the reply is pending.
  ChildProcess victim =
      run_victim_to_crash(Point::kRingEnqueuePublished, 1, [&] {
        NativePlatform p;
        const std::uint64_t tok = plane_->loan(kBytes);
        if (tok == PayloadPool::kNoPayload) return;
        std::memset(plane_->data(tok), 'r', kBytes);
        plane_->publish(tok, kBytes);
        (void)p.enqueue(reply_ep(), Message(Op::kEcho, 0, 3.0, tok));
      });
  ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";
  ASSERT_EQ(reply_ep().ring->size(), 1u);

  RecoveryStats stats = channel_->sweep_leaked();
  EXPECT_EQ(stats.payloads_reclaimed, 0u)
      << "a reply pending in a ring must pin its payload slot";
  EXPECT_EQ(plane_->loans_outstanding(), 1u);

  // The live client reads the reply and its bytes, intact.
  NativePlatform client;
  Message m;
  ASSERT_TRUE(client.dequeue(reply_ep(), &m));
  EXPECT_DOUBLE_EQ(m.value, 3.0);
  ASSERT_TRUE(plane_->owns_token(m.ext_offset));
  EXPECT_EQ(plane_->read(m.ext_offset), std::string(kBytes, 'r'));

  // Delivered now: the consumed slot's stale copy must not keep pinning
  // it, and its dead holder no longer protects it.
  stats = channel_->sweep_leaked();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_EQ(channel_->node_pool().free_count(), nfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

// The invariant checker judges a reply endpoint's sleep/wake state by its
// ring. A reply waiting while the client is marked asleep with no token
// banked is a lost wake-up; an empty ring with a banked token is a stale
// one. A checker that skipped reply endpoints would pass both.
using PoolReplyRingInvariantTest = PoolReplyRingCrashTest;

TEST_F(PoolReplyRingInvariantTest, LostWakeupOnReplyRingIsReported) {
  NativeEndpoint& ep = reply_ep();
  const auto check = [&] {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), plane_, {&ep})
        .to_string();
  };
  ASSERT_EQ(check(), "ok") << "an idle reply endpoint is consistent";

  NativePlatform p;
  ASSERT_TRUE(p.enqueue(ep, Message(Op::kEcho, 0, 1.0)));
  p.clear_awake(ep);
  ASSERT_EQ(ep.fsem.value(), 0u);
  EXPECT_NE(check().find("endpoint 0: lost wake-up"), std::string::npos)
      << check();

  p.sem_v(ep);  // the wake the producer owed: consistent again
  EXPECT_EQ(check(), "ok");

  Message m;
  ASSERT_TRUE(p.dequeue(ep, &m));  // consumed without absorbing the token
  EXPECT_NE(check().find("endpoint 0: stale semaphore token"),
            std::string::npos)
      << check();

  p.sem_p(ep);
  p.set_awake(ep);
  EXPECT_EQ(check(), "ok");
}

}  // namespace
}  // namespace ulipc
