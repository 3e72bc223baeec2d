// Crash-point mode: fork a victim, SIGKILL it at an armed marker, run the
// recovery machinery, and prove the shared region returns to a sane state
// via explore::check_invariants(). Each test targets one structural hazard
// of the enqueue/dequeue/wake paths:
//   * a node allocated but never linked (dies before the link publication),
//   * a corpse past the link with the tail lagging its linked node (two-lock:
//     dies holding the tail lock; lock-free: dies before its tail swing),
//   * the same, but on the Nth enqueue of a burst (nth-hit arming),
//   * a corpse past the head advance with the detached dummy unreleased
//     (two-lock: inside the head lock; lock-free: past its head CAS),
//   * a producer dying between its tas(awake) and its V.
// The whole suite is TEST_P over the queue engines: both engines reuse the
// same kQ* markers at their analogous linearization steps, so each test
// body proves the same reclaim guarantee against both recovery disciplines
// (lock steal + repair vs announcements + helping).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/channel.hpp"
#include "protocols/detail.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::kMarkerMissed;
using explore::Point;
using explore::run_victim_to_crash;

class CrashPointTest : public ::testing::TestWithParam<QueueEngine> {
 protected:
  CrashPointTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 4;
    cfg.queue_capacity = 16;
    cfg.engines.server = cfg.engines.reply = cfg.engines.shard = GetParam();
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    free0_ = channel_->node_pool().free_count();
  }

  NativeEndpoint& ep() { return channel_->server_endpoint(); }

  explore::InvariantReport invariants() {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), nullptr, {&ep()});
  }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
  std::uint32_t free0_ = 0;
};

TEST_P(CrashPointTest, VictimThatNeverReachesTheMarkerReportsMissed) {
  // Arm a marker the enqueue path never passes: the victim runs to
  // completion and the harness must say so instead of reporting a crash.
  ChildProcess victim =
      run_victim_to_crash(Point::kSweepBegin, /*nth=*/1, [&] {
        NativePlatform plat;
        detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, 1.0));
      });
  const int status = victim.join();
  EXPECT_EQ(status, kMarkerMissed);
  EXPECT_FALSE(died_at_marker(status));
  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, DeathBeforeLinkLeaksOnlyThePrivateNode) {
  // SIGKILL after the node is allocated and filled but before it is
  // linked: the node is invisible to every queue — exactly what the global
  // sweep exists for.
  ChildProcess victim =
      run_victim_to_crash(Point::kQEnqueueNodeReady, 1, [&] {
        NativePlatform plat;
        detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, 2.0));
      });
  EXPECT_TRUE(died_at_marker(victim.join()));

  // The checker must SEE the leak before recovery runs...
  EXPECT_FALSE(invariants().ok())
      << "a node allocated by the corpse must read as leaked";
  // ...and the sweep must reclaim exactly that one node.
  const RecoveryStats stats = sweep_leaked_nodes(
      channel_->node_pool(), channel_->all_queues(), nullptr);
  EXPECT_EQ(stats.nodes_reclaimed, 1u);
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(ep().queue->empty()) << "the message was never published";
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, DeathInsideTailLockIsStolenAndRepaired) {
  // SIGKILL with the tail lock held and tail_ lagging the linked node: the
  // next enqueuer must steal the lock, repair the tail by walking from
  // head, and append AFTER the victim's message — nothing lost, nothing
  // duplicated.
  ChildProcess victim = run_victim_to_crash(Point::kQEnqueueLinked, 1, [&] {
    NativePlatform plat;
    detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, 5.0));
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, 6.0)))
      << "survivor could not steal the corpse's tail lock";
  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 5.0) << "victim's linked message must survive";
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 6.0);
  EXPECT_FALSE(ep().queue->dequeue(&m));
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, NthHitArmingCrashesOnTheNthEnqueue) {
  // The victim survives two full enqueues and dies inside the third's
  // critical section — nth-hit arming reaches crash points deep into a
  // run, not just the first dynamic hit.
  ChildProcess victim = run_victim_to_crash(Point::kQEnqueueLinked, 3, [&] {
    NativePlatform plat;
    for (int i = 1; i <= 5; ++i) {
      detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, double(i)));
    }
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, 99.0)));
  double got[4] = {};
  Message m;
  for (double& g : got) {
    ASSERT_TRUE(ep().queue->dequeue(&m));
    g = m.value;
  }
  EXPECT_FALSE(ep().queue->dequeue(&m)) << "enqueues 4 and 5 never happened";
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
  EXPECT_DOUBLE_EQ(got[2], 3.0) << "the mid-link message must be repaired in";
  EXPECT_DOUBLE_EQ(got[3], 99.0);
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, DeathInsideHeadLockLeaksTheDetachedDummy) {
  // Pre-fill three messages, then SIGKILL the consumer right after it
  // advances head_ (old dummy detached but not yet released). The next
  // dequeuer steals the head lock and continues; the detached dummy is the
  // one leak, healed by the sweep.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, double(i))));
  }
  ChildProcess victim =
      run_victim_to_crash(Point::kQDequeueAdvanced, 1, [&] {
        NativePlatform plat;
        Message m;
        (void)plat.dequeue(ep(), &m);
      });
  EXPECT_TRUE(died_at_marker(victim.join()));

  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m))
      << "survivor could not steal the corpse's head lock";
  EXPECT_DOUBLE_EQ(m.value, 2.0) << "message 1 died with its consumer";
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 3.0);
  EXPECT_FALSE(ep().queue->dequeue(&m));

  EXPECT_FALSE(invariants().ok()) << "the detached dummy must read as leaked";
  const RecoveryStats stats = sweep_leaked_nodes(
      channel_->node_pool(), channel_->all_queues(), nullptr);
  EXPECT_EQ(stats.nodes_reclaimed, 1u);
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, DeathBetweenTasAndWakeLeavesConsistentState) {
  // The producer dies AFTER publishing the message and setting the awake
  // flag but BEFORE its V. No token was banked and none is owed: the flag
  // it set means any consumer reaching C.3 (or C.1) finds the message
  // without sleeping. State must be consistent, with nothing to sweep.
  ep().awake.clear();  // a consumer is "about to sleep" (post-C.2 window)
  ChildProcess victim = run_victim_to_crash(Point::kProtPreWake, 1, [&] {
    NativePlatform plat;
    detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, 4.2));
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  EXPECT_TRUE(ep().awake.is_set()) << "the victim's tas already ran";
  EXPECT_EQ(ep().fsem.value(), 0u) << "the V never happened";
  EXPECT_EQ(ep().queue->size(), 1u);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();

  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 4.2);
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

INSTANTIATE_TEST_SUITE_P(Engines, CrashPointTest,
                         ::testing::Values(QueueEngine::kTwoLock,
                                           QueueEngine::kLockFree),
                         [](const ::testing::TestParamInfo<QueueEngine>& i) {
                           return std::string(queue_engine_name(i.param)) ==
                                          "twolock"
                                      ? "TwoLock"
                                      : "LockFree";
                         });

}  // namespace
}  // namespace ulipc
