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

  NativeEndpoint& srv = ch.server_endpoint();
  EXPECT_TRUE(srv.queue->empty());
  EXPECT_FALSE(srv.ring) << "the receive endpoint is a node queue";
  for (std::uint32_t i = 0; i < cfg.max_clients; ++i) {
    NativeEndpoint& ep = ch.client_endpoint(i);
    EXPECT_NE(&ep, &srv);
    EXPECT_EQ(ep.id, i);
    EXPECT_FALSE(ep.queue) << "reply endpoint " << i << " owns a MsgQueue";
    SpscRing* ring = ep.ring.get();
    ASSERT_NE(ring, nullptr);
    EXPECT_TRUE(ring->empty());
    ASSERT_TRUE(ring->enqueue(Message(Op::kEcho, i, 1.0)));
    Message m;
    ASSERT_TRUE(ring->dequeue(&m));
    EXPECT_EQ(m.channel, i);
  }
}

TEST(ShmChannel, QueueCapacityHonored) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel ch = ShmChannel::create(region, cfg);
  MsgQueue& q = *ch.server_endpoint().queue;
  for (std::uint32_t i = 0; i < cfg.queue_capacity; ++i) {
    EXPECT_TRUE(q.enqueue(Message(Op::kEcho, 0, 0.0)));
  }
  EXPECT_FALSE(q.enqueue(Message(Op::kEcho, 0, 0.0)));
}

TEST(ShmChannel, AttachSeesSameStructures) {
  const auto cfg = small_config();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel creator = ShmChannel::create(region, cfg);
  ASSERT_TRUE(creator.server_endpoint().queue->enqueue(
      Message(Op::kEcho, 0, 9.5)));

  ShmChannel attached = ShmChannel::attach(region);
  EXPECT_EQ(attached.header().max_clients, cfg.max_clients);
  Message m;
  ASSERT_TRUE(attached.server_endpoint().queue->dequeue(&m));
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
