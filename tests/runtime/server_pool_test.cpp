// Functional tests for the sharded server pool: layout, placement-driven
// echo runs under both policies, and the idle-steal path (a parked worker's
// backlog must be served entirely by a thief).
#include "runtime/server_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <new>
#include <optional>
#include <vector>

#include "protocols/bsls.hpp"
#include "protocols/bsw.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class ServerPoolTest : public ::testing::Test {
 protected:
  void build(std::uint32_t shards, std::uint32_t clients) {
    ShmChannel::Config cfg;
    cfg.max_clients = clients;
    cfg.queue_capacity = 64;
    cfg.shards = shards;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
  }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
};

TEST_F(ServerPoolTest, PoolChannelLayout) {
  build(2, 4);
  EXPECT_EQ(channel_->num_shards(), 2u);
  EXPECT_EQ(channel_->shard_map().count(), 2u);
  EXPECT_NE(&channel_->shard_endpoint(0), &channel_->shard_endpoint(1));
  EXPECT_NE(&channel_->shard_endpoint(0), &channel_->server_endpoint());
  // Shard queues are MPSC receive endpoints: no ring. Every client reply
  // endpoint is fronted by a ring its repliers share under the producer
  // lock.
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(channel_->shard_endpoint(s).ring.get(), nullptr) << "shard " << s;
  }
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_NE(channel_->client_endpoint(c).ring.get(), nullptr)
        << "client " << c;
  }
}

// A client that never sees every peer connected gives up after this long
// and exits with kConnectBarrierExpired, so a peer that died before
// connecting fails the test instead of hanging it.
constexpr auto kConnectBarrierTimeout = std::chrono::seconds(10);
constexpr int kConnectBarrierExpired = 2;

// Forks `clients` echo clients against the pool and runs the worker threads
// in-process so the test can assert on the aggregate result directly. Every
// client connects before any starts echoing: on a loaded host a client could
// otherwise finish and disconnect before a later one connects, and the
// departure would skew least-loaded placement.
template <typename Proto>
ServerPoolResult run_pool_echo(ShmChannel& channel, std::uint32_t clients,
                               std::uint64_t messages, Proto proto,
                               ServerPoolOptions opts,
                               std::uint32_t forced_shard = kNoShard,
                               std::uint32_t window = 0) {
  opts.expected_clients = clients;
  ShmRegion gate_region =
      ShmRegion::create_anonymous(sizeof(std::atomic<std::uint32_t>));
  auto* connected = new (gate_region.base()) std::atomic<std::uint32_t>(0);
  std::vector<ChildProcess> client_procs;
  for (std::uint32_t i = 0; i < clients; ++i) {
    client_procs.push_back(ChildProcess::spawn([&, i] {
      NativePlatform plat;
      Proto p2 = proto;
      pool_client_connect(plat, p2, channel, i, opts.policy, forced_shard);
      connected->fetch_add(1, std::memory_order_acq_rel);
      const auto deadline =
          std::chrono::steady_clock::now() + kConnectBarrierTimeout;
      while (connected->load(std::memory_order_acquire) < clients) {
        if (std::chrono::steady_clock::now() >= deadline) {
          pool_client_disconnect(plat, p2, channel, i);
          return kConnectBarrierExpired;
        }
        sched_yield();
      }
      const std::uint64_t ok =
          window == 0
              ? pool_client_echo_loop(plat, p2, channel, i, messages)
              : pool_client_echo_loop_windowed(plat, p2, channel, i,
                                               messages, window);
      pool_client_disconnect(plat, p2, channel, i);
      return ok == messages ? 0 : 1;
    }));
  }
  const ServerPoolResult result = run_server_pool(channel, proto, opts);
  for (auto& c : client_procs) {
    const int status = c.join();
    EXPECT_NE(status, kConnectBarrierExpired)
        << "a client gave up waiting for its peers to connect";
    EXPECT_EQ(status, 0);
  }
  return result;
}

TEST_F(ServerPoolTest, TwoShardEchoLeastLoaded) {
  build(2, 4);
  ServerPoolOptions opts;
  opts.steal_batch = 0;  // no stealing: per-worker counts are deterministic
  const ServerPoolResult r =
      run_pool_echo(*channel_, 4, 500, Bsls<NativePlatform>(10), opts);
  EXPECT_EQ(r.echo_messages, 2'000u);
  EXPECT_EQ(r.control_messages, 8u);  // 4 connects + 4 disconnects
  ASSERT_EQ(r.workers.size(), 2u);
  // Least-loaded places 2 clients per shard, and with stealing off each
  // worker serves exactly its own clients' traffic.
  EXPECT_EQ(r.workers[0].server.echo_messages, 1'000u);
  EXPECT_EQ(r.workers[1].server.echo_messages, 1'000u);
  EXPECT_EQ(r.crashed_workers, 0u);
  EXPECT_EQ(r.crashed_clients, 0u);
  EXPECT_GT(r.throughput_msgs_per_ms(), 0.0);
}

TEST_F(ServerPoolTest, RendezvousPolicyEcho) {
  build(3, 6);
  ServerPoolOptions opts;
  opts.policy = PlacementPolicy::kRendezvous;
  const ServerPoolResult r =
      run_pool_echo(*channel_, 6, 300, Bsw<NativePlatform>(), opts);
  EXPECT_EQ(r.echo_messages, 1'800u);
  EXPECT_EQ(r.crashed_workers, 0u);
}

TEST_F(ServerPoolTest, WindowedClientsVerifyAcrossShards) {
  build(2, 4);
  ServerPoolOptions opts;
  const ServerPoolResult r = run_pool_echo(*channel_, 4, 512,
                                           Bsls<NativePlatform>(10), opts,
                                           kNoShard, /*window=*/8);
  EXPECT_EQ(r.echo_messages, 4u * 512u);
}

TEST_F(ServerPoolTest, IdleWorkerStealsFromParkedShard) {
  build(2, 4);
  ServerPoolOptions opts;
  // Worker 0 serves one batch and parks; everything else its clients send
  // must be stolen and answered by worker 1.
  opts.park_worker = 0;
  opts.park_after_messages = 1;
  opts.steal_min_depth = 1;
  opts.liveness_timeout_ns = 2'000'000;  // fast idle ticks -> fast steals
  const std::uint64_t kMessages = 200;
  const ServerPoolResult r =
      run_pool_echo(*channel_, 4, kMessages, Bsls<NativePlatform>(10), opts,
                    /*forced_shard=*/0);
  EXPECT_EQ(r.echo_messages, 4 * kMessages);  // every request answered
  ASSERT_EQ(r.workers.size(), 2u);
  EXPECT_GT(r.workers[1].stolen_messages, 0u);
  EXPECT_GT(r.workers[1].server.echo_messages, 0u);
  // The shard-map victim cells saw the same traffic the thief reported.
  EXPECT_EQ(channel_->shard_map().shards[0].stolen_msgs.load(),
            r.stolen_messages);
  EXPECT_EQ(r.crashed_workers, 0u);
}

}  // namespace
}  // namespace ulipc
