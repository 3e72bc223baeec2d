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
//   * a producer dying between its tas(awake) and its V,
//   * a batch producer or consumer dying inside its one node-pool pass
//     (allocate_chain / release_chain), holding the pool lock.
// The whole suite is TEST_P over the queue engines: both engines reuse the
// same kQ* markers at their analogous linearization steps, so each test
// body proves the same reclaim guarantee against both recovery disciplines
// (lock steal + repair vs announcements + helping).
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/channel.hpp"
#include "protocols/detail.hpp"
#include "queue/msg_pool.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_allocator.hpp"
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
    cfg.engines.server = cfg.engines.shard = GetParam();
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

TEST_P(CrashPointTest, DeathInsideBatchNodeAllocationIsSwept) {
  // SIGKILL inside enqueue_batch's one pool pass, after free_head_ moved
  // past the chain but before the chain was cut: the corpse holds the pool
  // lock and four stamped, unreachable nodes. The next enqueuer steals the
  // lock; the sweep takes the four back.
  ChildProcess victim = run_victim_to_crash(Point::kNodeAllocDetached, 1, [&] {
    Message burst[4];
    for (int i = 0; i < 4; ++i) burst[i] = Message(Op::kEcho, 0, double(i));
    (void)ep().queue->enqueue_batch(burst, 4);
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, 7.0)))
      << "survivor could not steal the corpse's pool lock";
  const RecoveryStats stats = sweep_leaked_nodes(
      channel_->node_pool(), channel_->all_queues(), nullptr);
  EXPECT_EQ(stats.nodes_reclaimed, 4u);
  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 7.0) << "the corpse's batch was never published";
  EXPECT_FALSE(ep().queue->dequeue(&m));
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_P(CrashPointTest, DeathInsideBatchNodeReleaseIsSwept) {
  // SIGKILL inside a consumer's release of its detached nodes, on the
  // second node it pushes back (free-listed, stamp not yet cleared). Every
  // node is either on the free list or still stamped with the corpse's
  // pid, so steal + sweep restore exact conservation.
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, double(i))));
  }
  ChildProcess victim = run_victim_to_crash(Point::kNodeReleaseLinked, 2, [&] {
    Message out[4];
    (void)ep().queue->dequeue_batch(out, 4);
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  ASSERT_TRUE(ep().queue->enqueue(Message(Op::kEcho, 0, 9.0)))
      << "survivor could not steal the corpse's pool lock";
  (void)sweep_leaked_nodes(channel_->node_pool(), channel_->all_queues(),
                           nullptr);
  Message m;
  while (ep().queue->dequeue(&m)) {
  }
  EXPECT_DOUBLE_EQ(m.value, 9.0) << "the survivor's message is the last one";
  EXPECT_EQ(channel_->node_pool().free_count(), free0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

// Parks the calling thread at one marker until `go` is raised (the flags
// live in shared memory, so a forked victim can be held mid-operation).
class ParkAtPoint final : public explore::ThreadHook {
 public:
  ParkAtPoint(Point at, std::atomic<std::uint32_t>* parked,
              std::atomic<std::uint32_t>* go)
      : at_(at), parked_(parked), go_(go) {}
  void on_point(Point p) override {
    if (p != at_) return;
    parked_->store(1, std::memory_order_release);
    while (go_->load(std::memory_order_acquire) == 0) sched_yield();
  }
  void on_block(Point) override {}
  void on_resume() override {}

 private:
  Point at_;
  std::atomic<std::uint32_t>* parked_;
  std::atomic<std::uint32_t>* go_;
};

// Runs `fn` once, the first time the calling thread reaches a marker.
class RunAtPoint final : public explore::ThreadHook {
 public:
  RunAtPoint(Point at, std::function<void()> fn)
      : at_(at), fn_(std::move(fn)) {}
  void on_point(Point p) override {
    if (p != at_ || !fn_) return;
    std::function<void()> fn = std::move(fn_);
    fn_ = nullptr;
    fn();
  }
  void on_block(Point) override {}
  void on_resume() override {}

 private:
  Point at_;
  std::function<void()> fn_;
};

TEST_P(CrashPointTest, HolderLinkingAfterTheSweepMarkKeepsItsNodes) {
  // The node sweep's mark is a snapshot. A live enqueuer holds two
  // allocated, filled, unlinked nodes while the sweep marks; right after
  // the mark it links them and dies. The nodes are queued now, yet stamped
  // by a corpse: the sweep may release only nodes that a second mark,
  // taken after their owner was seen dead, still finds off every list.
  ShmRegion flag_region = ShmRegion::create_anonymous(4096);
  auto* parked = new (flag_region.base()) std::atomic<std::uint32_t>(0);
  auto* go = new (parked + 1) std::atomic<std::uint32_t>(0);
  ChildProcess victim = run_victim_to_crash(Point::kQEnqueueDone, 1, [&] {
    ParkAtPoint park(Point::kQEnqueueNodeReady, parked, go);
    explore::set_thread_hook(&park);
    const Message burst[2] = {Message(Op::kEcho, 0, 1.0),
                              Message(Op::kEcho, 0, 2.0)};
    (void)ep().queue->enqueue_batch(burst, 2);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked->load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    sched_yield();
  }
  if (parked->load(std::memory_order_acquire) == 0) {
    go->store(1, std::memory_order_release);
    FAIL() << "victim never held its unlinked nodes";
  }

  // Between the sweep's mark and its reclaim: let the victim link its
  // nodes and die.
  int victim_status = 0;
  RunAtPoint link_and_die(Point::kSweepMarked, [&] {
    go->store(1, std::memory_order_release);
    victim_status = victim.join();
  });
  explore::set_thread_hook(&link_and_die);
  const RecoveryStats stats = sweep_leaked_nodes(
      channel_->node_pool(), channel_->all_queues(), nullptr);
  explore::set_thread_hook(nullptr);
  ASSERT_TRUE(died_at_marker(victim_status)) << "marker not reached";

  EXPECT_EQ(stats.nodes_reclaimed, 0u) << "the sweep released queued nodes";
  Message m;
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 1.0);
  ASSERT_TRUE(ep().queue->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 2.0);
  EXPECT_FALSE(ep().queue->dequeue(&m));
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

// The node pool's chain ops on their own: a victim dies at every
// intermediate step of allocate_chain / release_chain while holding the
// pool lock. The next locker — a scalar allocate(), or the sweep itself —
// steals the lock, the sweep takes back exactly the nodes the corpse held
// off the free list, and the pool ends conserved: free_count exact, no
// node leaked with owner 0, no stale stamp left on a free-listed node.
struct ChainCrashCase {
  const char* name;
  Point point;
  std::uint32_t nth;
  bool release;         // crash inside release_chain (else allocate_chain)
  std::uint32_t swept;  // nodes the sweep must reclaim
};

// Names the case in test listings (the default prints the raw bytes,
// pointer included, which would change the test's name from run to run).
void PrintTo(const ChainCrashCase& c, std::ostream* os) { *os << c.name; }

class NodePoolCrashBase : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCapacity = 16;
  static constexpr std::uint32_t kChain = 4;

  NodePoolCrashBase()
      : region_(ShmRegion::create_anonymous(256 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, kCapacity)) {}

  // Every node is back: the invariants hold, the count is exact, no
  // free-listed node carries a stamp, and one chain of the whole capacity
  // visits each node once (a node pushed twice would link to itself).
  void expect_all_free() {
    NodePool& pool = *pool_;
    const explore::InvariantReport report =
        explore::check_invariants(pool, {});
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(pool.free_count(), kCapacity);
    EXPECT_EQ(report.free_nodes, kCapacity);
    for (ShmIndex i = 0; i < kCapacity; ++i) {
      EXPECT_EQ(pool.node(i).owner_pid, 0u) << "stale stamp on free node "
                                            << i;
    }
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    ASSERT_EQ(pool.allocate_chain(kCapacity, &first, &last), kCapacity);
    std::vector<char> seen(kCapacity, 0);
    ShmIndex i = first;
    for (std::uint32_t k = 0; k < kCapacity; ++k, i = pool.node(i).next) {
      ASSERT_NE(i, kNullIndex);
      EXPECT_EQ(seen[i]++, 0) << "node " << i << " handed out twice";
    }
    pool.release_chain(first, kCapacity);
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
};

class NodePoolCrashPointTest
    : public NodePoolCrashBase,
      public ::testing::WithParamInterface<ChainCrashCase> {
 protected:
  // Kills a victim at the case's step; `probe_first` lets a scalar
  // allocate() steal the corpse's lock before the sweep, else the sweep's
  // mark_free is the first locker.
  void run_case(bool probe_first) {
    const ChainCrashCase& c = GetParam();
    NodePool& pool = *pool_;
    // Two nodes held by the (live) parent sit off every list, like the
    // corpse's: the sweep must leave them alone.
    const ShmIndex held_a = pool.allocate();
    const ShmIndex held_b = pool.allocate();
    ASSERT_NE(held_b, kNullIndex);

    ChildProcess victim = run_victim_to_crash(c.point, c.nth, [&] {
      ShmIndex first = kNullIndex;
      ShmIndex last = kNullIndex;
      if (pool.allocate_chain(kChain, &first, &last) != kChain) return;
      if (c.release) pool.release_chain(first, kChain);
    });
    ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";
    EXPECT_NE(pool.lock().owner(), 0u) << "the corpse died holding the lock";

    if (probe_first) {
      const ShmIndex probe = pool.allocate();
      ASSERT_NE(probe, kNullIndex) << "survivor could not steal the pool lock";
      pool.release(probe);
    }

    const RecoveryStats stats = sweep_leaked_nodes(pool, {}, nullptr);
    EXPECT_EQ(stats.nodes_reclaimed, c.swept);
    pool.release(held_a);
    pool.release(held_b);
    expect_all_free();
  }
};

TEST_P(NodePoolCrashPointTest, DeathAtEveryStepIsReclaimable) {
  run_case(/*probe_first=*/true);
}

TEST_P(NodePoolCrashPointTest, SweepAsFirstLockerRepairsStamps) {
  run_case(/*probe_first=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    ChainSteps, NodePoolCrashPointTest,
    ::testing::Values(
        // allocate_chain: stamped-but-free nodes need no reclaim; once
        // free_head_ moves, all four are the corpse's.
        ChainCrashCase{"AllocFirstStamped", Point::kNodeAllocStamped, 1,
                       false, 0},
        ChainCrashCase{"AllocLastStamped", Point::kNodeAllocStamped, 4,
                       false, 0},
        ChainCrashCase{"AllocDetached", Point::kNodeAllocDetached, 1, false,
                       4},
        ChainCrashCase{"AllocCut", Point::kNodeAllocCut, 1, false, 4},
        // release_chain: before the k-th push, nodes k..4 are still the
        // corpse's; after it, nodes k+1..4 are.
        ChainCrashCase{"ReleaseFirstTagged", Point::kNodeReleaseTagged, 1,
                       true, 4},
        ChainCrashCase{"ReleaseThirdTagged", Point::kNodeReleaseTagged, 3,
                       true, 2},
        ChainCrashCase{"ReleaseFirstLinked", Point::kNodeReleaseLinked, 1,
                       true, 3},
        ChainCrashCase{"ReleaseLastLinked", Point::kNodeReleaseLinked, 4,
                       true, 0},
        ChainCrashCase{"ReleaseSpliced", Point::kNodeReleaseSpliced, 1, true,
                       0}),
    [](const ::testing::TestParamInfo<ChainCrashCase>& i) {
      return std::string(i.param.name);
    });

// The sweep's mark can predate a death: here mark_free runs while the
// (live) victim holds its chain, so the chain is unmarked; the victim then
// dies inside release_chain with the first node already linked back onto
// the free list under its stamp. Reclaiming with that old mark must skip
// the free-listed node — pushing it a second time would make it its own
// successor and hand it out over and over — and take back the other three.
using NodePoolStaleMarkCrashPointTest = NodePoolCrashBase;

TEST_F(NodePoolStaleMarkCrashPointTest, DeathInsideReleaseAfterMarkIsSweptOnce) {
  NodePool& pool = *pool_;
  auto* holding = arena_.construct<std::atomic<std::uint32_t>>(0u);
  auto* go = arena_.construct<std::atomic<std::uint32_t>>(0u);
  ChildProcess victim = run_victim_to_crash(Point::kNodeReleaseLinked, 1, [&] {
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    if (pool.allocate_chain(kChain, &first, &last) != kChain) return;
    holding->store(1, std::memory_order_release);
    while (go->load(std::memory_order_acquire) == 0) sched_yield();
    pool.release_chain(first, kChain);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (holding->load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    sched_yield();
  }
  const bool victim_holds = holding->load(std::memory_order_acquire) != 0;
  std::vector<char> mark(kCapacity, 0);
  pool.mark_free(mark);
  go->store(1, std::memory_order_release);  // unblocks the victim either way
  ASSERT_TRUE(victim_holds) << "victim never allocated its chain";
  ASSERT_TRUE(died_at_marker(victim.join())) << "marker not reached";

  const std::uint32_t reclaimed = pool.reclaim_dead(
      pool.dead_holders(mark,
                        [](std::uint32_t pid) { return process_alive(pid); }),
      mark);
  EXPECT_EQ(reclaimed, 3u);
  expect_all_free();
}

}  // namespace
}  // namespace ulipc
