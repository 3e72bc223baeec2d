// The PR-1 recovery sweep running CONCURRENTLY with connect/disconnect
// churn against the pool. The sweep's safety argument (queue_recovery.hpp)
// is that marking runs under the structures' own locks and a node is only
// reclaimed when its stamped owner is DEAD — so a sweep racing live
// clients mid-enqueue/mid-dequeue must reclaim nothing and perturb
// nothing. This test hammers that argument: four clients cycle
// connect → echo → disconnect while the parent sweeps in a tight loop the
// whole time. Every reply must verify, every sweep must come back empty,
// and the node pool must balance at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "protocols/bsw.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class RecoveryChurnTest : public ::testing::TestWithParam<QueueEngine> {};

TEST_P(RecoveryChurnTest, SweepRacingLiveChurnReclaimsNothingAndLosesNothing) {
  constexpr std::uint32_t kWorkers = 2;
  constexpr std::uint32_t kClients = 4;
  constexpr std::uint32_t kCycles = 4;
  constexpr std::uint64_t kMessages = 25;

  ShmChannel::Config cfg;
  cfg.max_clients = kClients;
  cfg.queue_capacity = 64;
  cfg.shards = kWorkers;
  cfg.engines.server = cfg.engines.shard = GetParam();
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  const std::uint32_t free0 = channel.node_pool().free_count();

  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* clients_done =
      new (out_region.base()) std::atomic<std::uint32_t>(0);

  std::vector<ChildProcess> workers;
  for (std::uint32_t s = 0; s < kWorkers; ++s) {
    workers.push_back(ChildProcess::spawn([&, s] {
      ServerPoolOptions o;
      o.expected_clients = kClients * kCycles;  // one departure per cycle
      o.liveness_timeout_ns = 20'000'000;
      (void)run_pool_worker(channel, Bsw<NativePlatform>(), s, o);
      return 0;
    }));
    channel.register_worker_pid(
        s, static_cast<std::uint32_t>(workers.back().pid()));
  }

  std::vector<ChildProcess> clients;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(ChildProcess::spawn([&, i] {
      NativePlatform plat;
      Bsw<NativePlatform> proto;
      std::uint64_t verified = 0;
      for (std::uint32_t cy = 0; cy < kCycles; ++cy) {
        channel.register_client(i);
        pool_client_connect(plat, proto, channel, i,
                            PlacementPolicy::kLeastLoaded);
        verified += pool_client_echo_loop(plat, proto, channel, i, kMessages);
        pool_client_disconnect(plat, proto, channel, i);
      }
      clients_done->fetch_add(1, std::memory_order_acq_rel);
      return verified == kCycles * kMessages ? 0 : 1;
    }));
    channel.register_client_pid(
        i, static_cast<std::uint32_t>(clients.back().pid()));
  }

  // Sweep continuously while the churn runs. Everyone is alive, so the
  // liveness gate must hold back every mark-missed node: cumulative
  // reclaims stay zero or the sweep just ate an in-flight message.
  std::uint64_t sweeps = 0;
  std::uint32_t reclaimed = 0;
  while (clients_done->load(std::memory_order_acquire) < kClients) {
    RobustGuard g(channel.header().recovery_lock);
    const RecoveryStats st = sweep_leaked_nodes(
        channel.node_pool(), channel.all_queues(), nullptr);
    reclaimed += st.nodes_reclaimed;
    ++sweeps;
  }

  for (auto& c : clients) EXPECT_EQ(c.join(), 0) << "client lost replies";
  for (auto& w : workers) EXPECT_EQ(w.join(), 0);

  EXPECT_GT(sweeps, 0u);
  EXPECT_EQ(reclaimed, 0u)
      << "a sweep reclaimed a node owned by a LIVE process";
  // One final serialized sweep on the quiesced channel, then the balance.
  {
    RobustGuard g(channel.header().recovery_lock);
    const RecoveryStats st = sweep_leaked_nodes(
        channel.node_pool(), channel.all_queues(), nullptr);
    EXPECT_EQ(st.nodes_reclaimed, 0u);
  }
  EXPECT_EQ(channel.node_pool().free_count(), free0)
      << "node pool did not balance after churn + concurrent sweeps";
}

INSTANTIATE_TEST_SUITE_P(Engines, RecoveryChurnTest,
                         ::testing::Values(QueueEngine::kTwoLock,
                                           QueueEngine::kLockFree),
                         [](const ::testing::TestParamInfo<QueueEngine>& i) {
                           return i.param == QueueEngine::kTwoLock
                                      ? "TwoLock"
                                      : "LockFree";
                         });

}  // namespace
}  // namespace ulipc
