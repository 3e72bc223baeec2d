// Crash points on the receive rings: the two-lock rings behind the server's
// endpoint and each pool shard's (queue/spsc_ring.hpp, Consumers::kShared).
// Producers (clients) hold the ring's producer lock, consumers (the shard
// owner, a thief, a reaper) its consumer lock, and either can die holding
// it:
//   * a producer killed between its slot write and its head publish: the
//     unpublished slot pins nothing, so the payload the corpse loaned for
//     it is reclaimed by the payload sweep, and the next producer steals
//     the lock and overwrites the slot;
//   * a consumer (a pool worker) killed between its copy and its tail
//     publish: the request was never consumed, so the reaper's drain
//     steals the consumer lock and serves it — exactly once;
//   * no crash, four threads: two clients feed one shard ring while its
//     owner and a thief consume it; every request is delivered exactly
//     once and in each client's order (run under TSan in CI);
//   * the invariant checker judges a request endpoint's sleep/wake state
//     by its ring, so it reports a lost wake-up planted there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/bsw.hpp"
#include "protocols/detail.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::Point;
using explore::run_victim_to_crash;

/// Cross-process flag the survivor's run ends on.
struct RingCrashOut {
  std::atomic<std::uint32_t> stop{0};
};

class ReceiveRingCrashTest : public ::testing::Test {
 protected:
  ReceiveRingCrashTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 2;
    cfg.queue_capacity = 16;
    cfg.shards = 2;  // payload plane on by default (4 KiB max)
    cfg.engines.server = cfg.engines.shard = QueueEngine::kRing;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    out_region_ = ShmRegion::create_anonymous(4096);
    out_ = new (out_region_.base()) RingCrashOut();
    plane_ = channel_->payload_plane();
    pfree0_ = plane_->free_count();
  }

  NativeEndpoint& shard(std::uint32_t s) { return channel_->shard_endpoint(s); }

  explore::InvariantReport invariants(
      const std::vector<NativeEndpoint*>& endpoints = {}) {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), plane_,
                                     endpoints);
  }

  ShmRegion region_;
  ShmRegion out_region_;
  std::optional<ShmChannel> channel_;
  RingCrashOut* out_ = nullptr;
  PayloadPool* plane_ = nullptr;
  std::uint32_t pfree0_ = 0;
};

TEST_F(ReceiveRingCrashTest, ProducerKilledBeforeHeadPublishLosesOnlyItsLoan) {
  constexpr std::uint32_t kBytes = 512;
  ASSERT_EQ(channel_->node_pool().capacity(), 0u) << "a ring-only channel";
  SpscRing& ring = *shard(0).ring;

  // The victim client loans a payload, writes the request carrying it into
  // shard 0's ring and dies before publishing the head, holding the
  // producer lock.
  ChildProcess victim = run_victim_to_crash(Point::kRingEnqueueSlot, 1, [&] {
    NativePlatform p;
    const std::uint64_t tok = plane_->loan(kBytes);
    if (tok == PayloadPool::kNoPayload) return;
    std::memset(plane_->data(tok), 'q', kBytes);
    plane_->publish(tok, kBytes);
    detail::enqueue_and_wake(p, shard(0), Message(Op::kEcho, 0, 1.0, tok));
  });
  const auto victim_pid = static_cast<std::uint32_t>(victim.pid());
  ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";
  EXPECT_EQ(ring.producer_lock().owner(), victim_pid);
  EXPECT_TRUE(ring.empty()) << "the written slot was never published";
  EXPECT_EQ(plane_->loans_outstanding(), 1u);
  EXPECT_FALSE(invariants().ok()) << "a loan held by a corpse is a leak";

  // The unpublished slot pins nothing: the sweep takes the loan back.
  const RecoveryStats stats = channel_->sweep_leaked();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(stats.nodes_reclaimed, 0u);
  EXPECT_EQ(plane_->free_count(), pfree0_);

  // The next producer steals the lock and overwrites the slot; the
  // consumer sees its message and nothing of the corpse's.
  NativePlatform p;
  ASSERT_TRUE(p.enqueue(shard(0), Message(Op::kEcho, 1, 2.0)));
  EXPECT_EQ(ring.producer_lock().steal_count(), 1u);
  EXPECT_EQ(ring.producer_lock().owner(), 0u);
  Message m;
  ASSERT_TRUE(p.dequeue(shard(0), &m));
  EXPECT_DOUBLE_EQ(m.value, 2.0);
  EXPECT_EQ(m.ext_offset, PayloadPool::kNoPayload);
  EXPECT_FALSE(p.dequeue(shard(0), &m));
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(ReceiveRingCrashTest, ConsumerKilledBeforeTailPublishIsServedOnce) {
  SpscRing& ring = *shard(0).ring;
  NativePlatform client;
  ASSERT_TRUE(client.enqueue(shard(0), Message(Op::kEcho, 0, 5.0)));

  // Worker 0 receives the request and dies with it copied out but the
  // tail unpublished, holding the consumer lock.
  ChildProcess victim = run_victim_to_crash(Point::kRingDequeueCopy, 1, [&] {
    ServerPoolOptions o;
    o.expected_clients = 1;
    o.steal_batch = 0;
    (void)run_pool_worker(*channel_, Bsw<NativePlatform>(), 0, o);
  });
  const auto victim_pid = static_cast<std::uint32_t>(victim.pid());
  channel_->register_worker_pid(0, victim_pid);
  ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";
  EXPECT_EQ(ring.consumer_lock().owner(), victim_pid);
  EXPECT_EQ(ring.size(), 1u) << "a copy without a tail publish took nothing";

  // Worker 1 reaps worker 0 and drains its shard: its drain steals the
  // consumer lock, reads the same slot and serves the request.
  ChildProcess survivor = ChildProcess::spawn([&] {
    ServerPoolOptions o;
    o.expected_clients = 1;
    o.liveness_timeout_ns = 5'000'000;
    o.steal_batch = 0;
    o.stop_flag = &out_->stop;
    const PoolWorkerResult r =
        run_pool_worker(*channel_, Bsw<NativePlatform>(), 1, o);
    return r.reaped_workers == 1 && r.migrated_messages == 1 ? 0 : 1;
  });
  channel_->register_worker_pid(1, static_cast<std::uint32_t>(survivor.pid()));
  const auto bound =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (channel_->worker_pid(0) != 0 &&
         std::chrono::steady_clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool reaped = channel_->worker_pid(0) == 0;
  out_->stop.store(1, std::memory_order_release);
  if (!reaped) survivor.kill();
  ASSERT_TRUE(reaped) << "the reap of worker 0 never finished";
  EXPECT_EQ(survivor.join(), 0) << "the reaper did not serve the request";

  EXPECT_EQ(ring.consumer_lock().steal_count(), 1u);
  EXPECT_TRUE(ring.empty());
  Message m;
  ASSERT_TRUE(client.dequeue(channel_->client_endpoint(0), &m))
      << "the request was lost with its consumer";
  EXPECT_DOUBLE_EQ(m.value, 5.0);
  EXPECT_FALSE(client.dequeue(channel_->client_endpoint(0), &m))
      << "the request was served twice";
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

// Owner versus thief on one shard ring, no crash: two client threads feed
// it while the owner takes scalar receives and a thief steals batches,
// each through its own platform, as the pool's workers do. Every request
// is delivered exactly once, and each consumer sees each client's requests
// in send order.
TEST_F(ReceiveRingCrashTest, OwnerAndThiefDeliverEveryRequestOnce) {
  constexpr std::uint32_t kClients = 2;
  constexpr std::uint32_t kPerClient = 20'000;
  std::atomic<std::uint32_t> consumed{0};
  // seen[consumer * kClients + client]: values in the order received.
  std::vector<std::vector<std::uint32_t>> seen(2 * kClients);
  // A lost request would keep the consumers polling forever: bound them.
  const auto bound =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto more = [&] {
    return consumed.load(std::memory_order_relaxed) < kClients * kPerClient &&
           std::chrono::steady_clock::now() < bound;
  };

  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NativePlatform p;
      for (std::uint32_t i = 0; i < kPerClient && more();) {
        if (p.enqueue(shard(0), Message(Op::kEcho, c, double(i)))) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  const auto record = [&](std::uint32_t consumer, const Message& m) {
    seen[consumer * kClients + m.channel].push_back(
        static_cast<std::uint32_t>(m.value));
  };
  threads.emplace_back([&] {  // owner: scalar receives
    NativePlatform p;
    Message m;
    while (more()) {
      if (p.dequeue(shard(0), &m)) {
        record(0, m);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  threads.emplace_back([&] {  // thief: batched steals
    NativePlatform p;
    Message batch[8];
    while (more()) {
      const std::uint32_t k = p.dequeue_batch(shard(0), batch, 8);
      for (std::uint32_t i = 0; i < k; ++i) record(1, batch[i]);
      consumed.fetch_add(k, std::memory_order_relaxed);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(consumed.load(), kClients * kPerClient);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    std::vector<char> hits(kPerClient, 0);
    for (std::uint32_t consumer = 0; consumer < 2; ++consumer) {
      const std::vector<std::uint32_t>& v = seen[consumer * kClients + c];
      for (std::size_t i = 0; i < v.size(); ++i) {
        ASSERT_LT(v[i], kPerClient);
        if (i > 0) {
          ASSERT_LT(v[i - 1], v[i]) << "consumer " << consumer
                                    << " saw client " << c << " out of order";
        }
        ++hits[v[i]];
      }
    }
    for (std::uint32_t i = 0; i < kPerClient; ++i) {
      ASSERT_EQ(hits[i], 1) << "client " << c << " request " << i;
    }
  }
  EXPECT_TRUE(shard(0).ring->empty());
  EXPECT_EQ(shard(0).ring->consumer_lock().steal_count(), 0u);
}

// The invariant checker judges a request endpoint by its ring: a request
// waiting while the server is marked asleep with no token banked is a lost
// wake-up; an empty ring with a banked token is a stale one.
TEST_F(ReceiveRingCrashTest, LostWakeupOnRequestRingIsReported) {
  NativeEndpoint& ep = channel_->server_endpoint();
  ASSERT_TRUE(ep.ring && ep.ring->shared_consumers());
  const auto check = [&] { return invariants({&ep}).to_string(); };
  ASSERT_EQ(check(), "ok") << "an idle request endpoint is consistent";

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
