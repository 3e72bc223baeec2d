#include "runtime/shm_channel.hpp"

#include <gtest/gtest.h>

#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

ShmChannel::Config small_config() {
  ShmChannel::Config cfg;
  cfg.max_clients = 3;
  cfg.queue_capacity = 16;
  return cfg;
}

// Every channel shape must fit the size required_bytes() reports: plain
// and pool channels (one shard and kMaxShards), with and without a payload
// plane. The arena throws when an allocation runs past the region.
TEST(ShmChannel, RequiredBytesSufficesForCreate) {
  for (std::uint32_t clients : {1u, 4u, kMaxClients}) {
    for (std::uint32_t shards : {0u, 1u, kMaxShards}) {
      if (shards > clients) continue;
      for (std::uint32_t payload_max : {0u, 65536u}) {
        ShmChannel::Config cfg;
        cfg.max_clients = clients;
        cfg.queue_capacity = 128;
        cfg.create_sysv_queues = true;
        cfg.shards = shards;
        cfg.payload_max_bytes = payload_max;
        ShmRegion region =
            ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
        EXPECT_NO_THROW({ ShmChannel ch = ShmChannel::create(region, cfg); })
            << clients << " clients, " << shards << " shards, payloads up to "
            << payload_max << " B";
      }
    }
  }
}

TEST(ShmChannel, EndpointsAreDistinctAndUsable) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);

  NativePlatform p;
  NativeEndpoint& srv = ch.server_endpoint();
  EXPECT_TRUE(p.queue_empty(srv));
  if (cfg.engines.server == QueueEngine::kRing) {
    ASSERT_TRUE(srv.ring) << "the receive endpoint is a two-lock ring";
    EXPECT_FALSE(srv.queue);
    EXPECT_TRUE(srv.ring->shared_consumers());
  } else {
    ASSERT_TRUE(srv.queue) << "the receive endpoint is a node queue";
    EXPECT_FALSE(srv.ring);
    EXPECT_EQ(srv.queue->engine(), cfg.engines.server);
  }
  for (std::uint32_t i = 0; i < cfg.max_clients; ++i) {
    NativeEndpoint& ep = ch.client_endpoint(i);
    EXPECT_NE(&ep, &srv);
    EXPECT_EQ(ep.id, i);
    EXPECT_FALSE(ep.queue) << "reply endpoint " << i << " owns a MsgQueue";
    SpscRing* ring = ep.ring.get();
    ASSERT_NE(ring, nullptr);
    EXPECT_FALSE(ring->shared_consumers()) << "one consumer: the client";
    EXPECT_TRUE(ring->empty());
    ASSERT_TRUE(ring->enqueue(Message(Op::kEcho, i, 1.0)));
    Message m;
    ASSERT_TRUE(ring->dequeue(&m));
    EXPECT_EQ(m.channel, i);
  }
}

// The receive bound is exactly queue_capacity under every engine, also
// when it is not a power of two: flow control starts at the same depth
// whichever structure backs the endpoint.
TEST(ShmChannel, QueueCapacityHonored) {
  for (const QueueEngine e :
       {QueueEngine::kRing, QueueEngine::kTwoLock, QueueEngine::kLockFree}) {
    for (const std::uint32_t capacity : {16u, 12u}) {
      auto cfg = small_config();
      cfg.queue_capacity = capacity;
      cfg.shards = 1;
      cfg.engines.server = cfg.engines.shard = e;
      ShmRegion region =
          ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
      ShmChannel ch = ShmChannel::create(region, cfg);
      NativePlatform p;
      for (NativeEndpoint* ep : ch.receive_endpoints()) {
        for (std::uint32_t i = 0; i < capacity; ++i) {
          EXPECT_TRUE(p.enqueue(*ep, Message(Op::kEcho, 0, 0.0)));
        }
        EXPECT_FALSE(p.enqueue(*ep, Message(Op::kEcho, 0, 0.0)))
            << queue_engine_name(e) << " endpoint " << ep->id
            << " holds more than " << capacity;
        EXPECT_EQ(ep->depth(), capacity);
      }
    }
  }
}

// A channel whose receive endpoints are all rings draws nothing from the
// node pool, so it has none, and it needs fewer bytes than the same
// channel on node queues.
TEST(ShmChannel, RingOnlyChannelHasNoNodes) {
  auto cfg = small_config();
  cfg.shards = 2;
  cfg.engines.server = cfg.engines.shard = QueueEngine::kRing;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);
  EXPECT_EQ(ch.node_pool().capacity(), 0u);
  EXPECT_TRUE(ch.all_queues().empty());
  EXPECT_EQ(ch.receive_endpoints().size(), 3u);
  EXPECT_EQ(ch.sweep_leaked().nodes_reclaimed, 0u);

  auto bare = cfg;  // no payload plane: the queues dominate the size
  bare.payload_max_bytes = 0;
  bare.queue_capacity = 64;
  auto linked = bare;
  linked.engines.server = linked.engines.shard = QueueEngine::kTwoLock;
  EXPECT_LT(ShmChannel::required_bytes(bare),
            ShmChannel::required_bytes(linked));

  // A mixed channel sizes its pool for its node queues alone.
  auto mixed = cfg;
  mixed.engines.shard = QueueEngine::kTwoLock;
  ShmRegion mixed_region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(mixed));
  ShmChannel mch = ShmChannel::create(mixed_region, mixed);
  EXPECT_EQ(mch.node_pool().capacity(),
            mixed.shards * (mixed.queue_capacity + 2));
  EXPECT_EQ(mch.all_queues().size(), mixed.shards);
}

TEST(ShmChannel, AttachSeesSameStructures) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel creator = ShmChannel::create(region, cfg);
  NativePlatform p;
  ASSERT_TRUE(p.enqueue(creator.server_endpoint(), Message(Op::kEcho, 0, 9.5)));

  ShmChannel attached = ShmChannel::attach(region);
  EXPECT_EQ(attached.header().max_clients, cfg.max_clients);
  Message m;
  ASSERT_TRUE(p.dequeue(attached.server_endpoint(), &m));
  EXPECT_DOUBLE_EQ(m.value, 9.5);
}

TEST(ShmChannel, AttachRejectsGarbageRegion) {
  ShmRegion region = ShmRegion::create_anonymous(1 << 16);
  EXPECT_THROW(ShmChannel::attach(region), InvariantError);
}

TEST(ShmChannel, SysvSemaphoresWiredToEndpoints) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);
  const SysvSemHandle h = ch.server_endpoint().vsem;
  EXPECT_GE(h.sem_id, 0);
  SysvSemaphoreSet::post(h);
  EXPECT_EQ(SysvSemaphoreSet::value(h), 1);
  SysvSemaphoreSet::wait(h);
  // Distinct semaphores per endpoint.
  EXPECT_NE(ch.client_endpoint(0).vsem.index,
            ch.client_endpoint(1).vsem.index);
}

TEST(ShmChannel, SysvQueuesCreatedOnRequest) {
  auto cfg = small_config();
  cfg.create_sysv_queues = true;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);
  EXPECT_GE(ch.header().sysv_request_qid, 0);
  const Message m(Op::kEcho, 0, 4.0);
  ch.request_queue().send(1, &m, sizeof(m));
  Message got;
  ch.request_queue().receive(0, &got, sizeof(got));
  EXPECT_DOUBLE_EQ(got.value, 4.0);
}

TEST(ShmChannel, BarrierInitializedForMaxClients) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);
  EXPECT_EQ(ch.barrier().parties(), cfg.max_clients);
}

}  // namespace
}  // namespace ulipc
