// Deterministic churn-vs-sweep crashes, pinned via the explore harness: a
// ResilientPoolClient (the scenario engine's client envelope) is SIGKILLed
// at exact queue markers while it churns retries against an unserved pool,
// and the parent then runs the PR-4/PR-1 recovery pair — reclaim_client
// for the seat, sweep_leaked_nodes for the pool — and proves the node pool
// balances. This pins the exact interleavings the chaos scenario
// (scenario.cpp) only hits probabilistically.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/resilience.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"
#include "support/node_engine.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::Point;
using explore::run_victim_to_crash;

class ChurnSweepCrashTest : public ::testing::Test {
 protected:
  ChurnSweepCrashTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 2;
    cfg.queue_capacity = 16;
    cfg.shards = 1;
    // The armed markers are the node queues' (kQ*).
    cfg.engines.shard = test::node_engine_from_env();
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    free0_ = channel_->node_pool().free_count();
  }

  /// Retry-churn config: 1 ms budgets so the unserved connect cycles
  /// through several enqueue attempts fast — the armed marker picks which
  /// attempt (and which instruction inside it) dies.
  static ResilienceConfig churn_config() {
    ResilienceConfig rcfg;
    rcfg.request_deadline_ns = 1'000'000;
    rcfg.max_retries = 10;
    rcfg.backoff_base_ns = 10'000;
    rcfg.backoff_cap_ns = 50'000;
    return rcfg;
  }

  /// The victim body: a resilient connect against a pool nobody serves.
  /// register_client(1) seats the victim's pid first, so the parent's
  /// post-mortem sees a crashed (not vacant) seat.
  void victim_connect() {
    NativePlatform plat;
    ResilientPoolClient c(*channel_, 1, churn_config());
    (void)c.connect(plat, PlacementPolicy::kLeastLoaded);
  }

  RecoveryStats locked_sweep() {
    RobustGuard g(channel_->header().recovery_lock);
    return sweep_leaked_nodes(channel_->node_pool(), channel_->all_queues(),
                              nullptr);
  }

  explore::InvariantReport invariants() {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), nullptr,
                                     {&channel_->shard_endpoint(0)});
  }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
  std::uint32_t free0_ = 0;
};

TEST_F(ChurnSweepCrashTest, ClientDeadMidLinkOnThirdRetryIsRepairedAway) {
  // Die INSIDE the tail lock of the third retry's enqueue: two requests
  // published, a third linked but with the tail lagging, the lock held by
  // a corpse. A survivor enqueue must steal + repair, and after the
  // drain + reclaim + sweep the pool must balance with zero true leaks
  // (a linked node is reachable, not leaked).
  ChildProcess victim = run_victim_to_crash(Point::kQEnqueueLinked, 3,
                                            [&] { victim_connect(); });
  ASSERT_TRUE(died_at_marker(victim.join()));
  EXPECT_TRUE(channel_->client_crashed(1));

  NativeEndpoint& shard = channel_->shard_endpoint(0);
  ASSERT_TRUE(shard.queue->enqueue(Message(Op::kEcho, 0, 77.0)))
      << "survivor could not steal the corpse's tail lock";
  // Drain: the victim's three identical kConnect attempts (same tag — the
  // resilience layer re-sends, never re-tags), then the probe.
  Message m;
  std::uint32_t connects = 0;
  std::uint32_t total = 0;
  double last = 0.0;
  while (shard.queue->dequeue(&m)) {
    ++total;
    if (m.opcode == Op::kConnect && m.channel == 1) ++connects;
    last = m.value;
  }
  EXPECT_EQ(connects, 3u) << "the mid-link attempt must be repaired in";
  EXPECT_EQ(total, 4u);
  EXPECT_DOUBLE_EQ(last, 77.0) << "probe must land after the repair";

  const auto rs = channel_->reclaim_client(1);
  EXPECT_TRUE(rs.reaped);
  EXPECT_EQ(rs.nodes_reclaimed, 0u)
      << "every node was reachable; nothing to sweep";
  EXPECT_FALSE(channel_->client_crashed(1)) << "seat must be vacated";
  EXPECT_EQ(locked_sweep().nodes_reclaimed, 0u);
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(ChurnSweepCrashTest, ClientDeadBeforeLinkLeaksOneNodeSweepHealsIt) {
  // Die with the second retry's node allocated and filled but NOT yet
  // linked: that node is invisible to every queue — the one shape only
  // the global sweep can heal. Exactly one reclaim, then balance.
  ChildProcess victim = run_victim_to_crash(Point::kQEnqueueNodeReady, 2,
                                            [&] { victim_connect(); });
  ASSERT_TRUE(died_at_marker(victim.join()));

  // One fully-published attempt sits in the shard queue; drain it (the
  // pool never had a worker).
  NativeEndpoint& shard = channel_->shard_endpoint(0);
  Message m;
  std::uint32_t drained = 0;
  while (shard.queue->dequeue(&m)) ++drained;
  EXPECT_EQ(drained, 1u);

  EXPECT_FALSE(invariants().ok())
      << "the unlinked node must read as leaked before recovery";
  // reclaim_client runs the sweep internally (step 2 of its recovery
  // ordering): the one leaked node must come back through it.
  const auto rs = channel_->reclaim_client(1);
  EXPECT_TRUE(rs.reaped);
  EXPECT_EQ(rs.nodes_reclaimed, 1u);
  EXPECT_EQ(locked_sweep().nodes_reclaimed, 0u) << "nothing left to sweep";
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

}  // namespace
}  // namespace ulipc
