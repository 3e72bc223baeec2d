// Queue-engine selection plane plus the guarantees shared by (and specific
// to) each MsgQueue engine:
//  * ULIPC_QUEUE_ENGINE grammar — bare name, per-topology list, garbage;
//  * value semantics through the facade, identical across engines (TEST_P);
//  * mixed-engine queues sharing one NodePool (the word-copy discipline
//    both engines' node fills follow exists exactly for this);
//  * lock-free crash windows the two-lock suite cannot express: a lagging
//    tail healed by helping instead of lock steal, a SIGKILLed dequeuer's
//    announced node reclaimed by the sweep, and a STALE announcement
//    (node already recycled, tag moved on) that the sweep must refuse.
#include "queue/msg_queue.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdlib>

#include "queue/queue_recovery.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

// ---------------------------------------------------- selection grammar

TEST(QueueEnginePolicy, BareNameAppliesToEveryTopology) {
  setenv("ULIPC_QUEUE_ENGINE", "lockfree", 1);
  const QueueEnginePolicy p = QueueEnginePolicy::from_env();
  EXPECT_EQ(p.server, QueueEngine::kLockFree);
  EXPECT_EQ(p.shard, QueueEngine::kLockFree);
  unsetenv("ULIPC_QUEUE_ENGINE");
}

TEST(QueueEnginePolicy, PerTopologyListPinsIndividually) {
  setenv("ULIPC_QUEUE_ENGINE", "server=lock-free,shard=twolock", 1);
  const QueueEnginePolicy p = QueueEnginePolicy::from_env();
  EXPECT_EQ(p.server, QueueEngine::kLockFree);
  EXPECT_EQ(p.shard, QueueEngine::kTwoLock);
  unsetenv("ULIPC_QUEUE_ENGINE");
}

TEST(QueueEnginePolicy, GarbageIsIgnoredNotFatal) {
  setenv("ULIPC_QUEUE_ENGINE", "mystery,shard=alien,color=twolock,server=lf",
         1);
  const QueueEnginePolicy p = QueueEnginePolicy::from_env();
  EXPECT_EQ(p.server, QueueEngine::kLockFree);  // the one valid item
  EXPECT_EQ(p.shard, QueueEnginePolicy::defaults().shard);
  unsetenv("ULIPC_QUEUE_ENGINE");
}

TEST(QueueEnginePolicy, ParseAcceptsDocumentedAliases) {
  QueueEngine e = QueueEngine::kTwoLock;
  EXPECT_TRUE(parse_queue_engine("lock-free", &e));
  EXPECT_EQ(e, QueueEngine::kLockFree);
  EXPECT_TRUE(parse_queue_engine("2lock", &e));
  EXPECT_EQ(e, QueueEngine::kTwoLock);
  EXPECT_FALSE(parse_queue_engine("", &e));
  EXPECT_FALSE(parse_queue_engine("twolockx", &e));
}

// ------------------------------------------------- shared value semantics

class QueueEngineTest : public ::testing::TestWithParam<QueueEngine> {
 protected:
  QueueEngineTest()
      : region_(ShmRegion::create_anonymous(1024 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, 64)) {}

  MsgQueue* make_queue(std::uint32_t capacity = 0) {
    return MsgQueue::create(arena_, pool_, capacity, GetParam());
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
};

TEST_P(QueueEngineTest, ReportsItsEngine) {
  EXPECT_EQ(make_queue()->engine(), GetParam());
}

TEST_P(QueueEngineTest, FifoThroughFacade) {
  MsgQueue* q = make_queue();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  Message m;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, double(i));
  }
  EXPECT_FALSE(q->dequeue(&m));
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueEngineTest, CapacityBoundAndSizeTrack) {
  MsgQueue* q = make_queue(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 99)));
  EXPECT_EQ(q->size(), 4u);
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_EQ(q->size(), 3u);
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 4)));
}

TEST_P(QueueEngineTest, BatchRoundTripPreservesOrderAndStamps) {
  MsgQueue* q = make_queue();
  Message in[8];
  for (int i = 0; i < 8; ++i) in[i] = Message(Op::kEcho, 0, i);
  ASSERT_EQ(q->enqueue_batch(in, 8, SpanStamp{7, 100}), 8u);
  Message out[8];
  SpanStamp sp;
  ASSERT_EQ(q->dequeue_batch(out, 8, &sp), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(out[i].value, double(i));
  EXPECT_EQ(sp.id, 7u) << "the batch's single stamp must survive transit";
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueEngineTest, SpanStampRidesScalarPath) {
  MsgQueue* q = make_queue();
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 1.0), SpanStamp{42, 7}));
  Message m;
  SpanStamp sp;
  ASSERT_TRUE(q->dequeue(&m, &sp));
  EXPECT_EQ(sp.id, 42u);
  EXPECT_EQ(sp.tick, 7);
}

TEST_P(QueueEngineTest, NodesRecycleThroughSharedPool) {
  MsgQueue* q = make_queue();
  const std::uint32_t free0 = pool_->free_count();
  Message m;
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, round)));
    ASSERT_TRUE(q->dequeue(&m));
  }
  EXPECT_EQ(pool_->free_count(), free0);
}

TEST_P(QueueEngineTest, DrainDiscardsAndBalances) {
  MsgQueue* q = make_queue();
  const std::uint32_t free0 = pool_->free_count();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  EXPECT_EQ(q->drain(), 12u);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool_->free_count(), free0);
}

TEST_P(QueueEngineTest, MarkReachableCountsAndConserves) {
  MsgQueue* q = make_queue();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, i)));
  }
  std::vector<char> mark(pool_->capacity(), 0);
  EXPECT_EQ(q->mark_reachable(mark), 5u);
  std::uint32_t marked = 0;
  for (char c : mark) marked += c != 0;
  EXPECT_EQ(marked, 6u) << "5 elements + the dummy";
  EXPECT_EQ(q->size(), 5u) << "a quiescent recount must reseat size exactly";
}

TEST_P(QueueEngineTest, ForEachPendingSkipsTheDummy) {
  MsgQueue* q = make_queue();
  Message m;
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 1.0)));
  ASSERT_TRUE(q->dequeue(&m));  // dummy now holds a stale copy of 1.0
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 2.0)));
  double sum = 0.0;
  std::uint32_t visits = 0;
  q->for_each_pending([&](const Message& pm) {
    sum += pm.value;
    ++visits;
  });
  EXPECT_EQ(visits, 1u);
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

// Two queues of DIFFERENT engines drawing from one pool: nodes recycle
// freely across engines, so every fill/copy has to follow the shared
// word-copy discipline (see lf_copy_words) and the lf_next tag must only
// ever move forward. Cross-process ping-pong hammers the recycling.
TEST_P(QueueEngineTest, MixedEnginePingPongSharesOnePool) {
  MsgQueue* request = MsgQueue::create(arena_, pool_, 16, GetParam());
  MsgQueue* reply = MsgQueue::create(
      arena_, pool_, 16,
      GetParam() == QueueEngine::kTwoLock ? QueueEngine::kLockFree
                                          : QueueEngine::kTwoLock);
  constexpr int kRounds = 10'000;
  ChildProcess server = ChildProcess::spawn([&] {
    Message m;
    for (int i = 0; i < kRounds; ++i) {
      while (!request->dequeue(&m)) sched_yield();
      m.value += 0.5;
      while (!reply->enqueue(m)) sched_yield();
    }
    return 0;
  });
  for (int i = 0; i < kRounds; ++i) {
    while (!request->enqueue(Message(Op::kEcho, 0, i))) sched_yield();
    Message m;
    while (!reply->dequeue(&m)) sched_yield();
    ASSERT_DOUBLE_EQ(m.value, i + 0.5);
  }
  EXPECT_EQ(server.join(), 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, QueueEngineTest,
                         ::testing::Values(QueueEngine::kTwoLock,
                                           QueueEngine::kLockFree),
                         [](const ::testing::TestParamInfo<QueueEngine>& i) {
                           return i.param == QueueEngine::kTwoLock
                                      ? "TwoLock"
                                      : "LockFree";
                         });

// ------------------------------------------- lock-free-specific recovery

class LockFreeRecoveryTest : public ::testing::Test {
 protected:
  LockFreeRecoveryTest()
      : region_(ShmRegion::create_anonymous(1024 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, 64)),
        queue_(MsgQueue::create(arena_, pool_, 0, QueueEngine::kLockFree)) {}

  RecoveryStats sweep() {
    return sweep_leaked_nodes(*pool_, {queue_}, nullptr);
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
  MsgQueue* queue_;
};

// The enqueuer dies after its link CAS, before its tail swing: there is no
// lock to steal — the next operation must HELP the lagging tail forward,
// and the linked message must survive (linking is the commit point).
TEST_F(LockFreeRecoveryTest, LaggingTailIsHealedByHelping) {
  const std::uint32_t free0 = pool_->free_count();
  ASSERT_TRUE(queue_->enqueue(Message(Op::kEcho, 0, 1.0)));
  ChildProcess victim = ChildProcess::spawn([&] {
    return queue_->crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 2.0)) !=
                   kNullIndex
               ? 0
               : 1;
  });
  ASSERT_EQ(victim.join(), 0);

  // The next enqueue lands AFTER the corpse's linked node.
  ASSERT_TRUE(queue_->enqueue(Message(Op::kEcho, 0, 3.0)));
  Message m;
  ASSERT_TRUE(queue_->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 1.0);
  ASSERT_TRUE(queue_->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 2.0) << "linked message lost";
  ASSERT_TRUE(queue_->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 3.0);
  EXPECT_TRUE(queue_->empty());
  EXPECT_EQ(pool_->free_count(), free0);
}

// A dequeue can also heal the lagging tail (the textbook helping path:
// head == tail but tail->next is non-null).
TEST_F(LockFreeRecoveryTest, DequeueHelpsLaggingTail) {
  ChildProcess victim = ChildProcess::spawn([&] {
    return queue_->crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 9.0)) !=
                   kNullIndex
               ? 0
               : 1;
  });
  ASSERT_EQ(victim.join(), 0);
  Message m;
  ASSERT_TRUE(queue_->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 9.0);
  EXPECT_FALSE(queue_->dequeue(&m));
}

// A stale announcement must never reclaim a recycled node: the sweep
// revalidates the announced lf_next tag, and release() bumped it.
TEST_F(LockFreeRecoveryTest, StaleAnnouncementIsRefusedAfterRecycle) {
  // Round-trip one message so some node has cycled through the queue.
  ASSERT_TRUE(queue_->enqueue(Message(Op::kEcho, 0, 1.0)));
  Message m;
  ASSERT_TRUE(queue_->dequeue(&m));
  const std::uint32_t free0 = pool_->free_count();

  // A child claims an announce slot, publishes a FREE node under its
  // CURRENT tag minus one (a tag from the node's previous life), and dies
  // without clearing — modeling a dequeuer whose loser CAS raced a faster
  // winner that already released the node.
  ChildProcess victim = ChildProcess::spawn([&] {
    const int slot = pool_->announce_slot();
    if (slot < 0) return 1;
    const ShmIndex idx = 0;  // any pool node; free ones are fair game
    const std::uint32_t cur =
        lf_tag(pool_->lf_next(idx).load(std::memory_order_acquire));
    pool_->announce_dequeue(slot, idx, cur - 1);
    return 0;
  });
  ASSERT_EQ(victim.join(), 0);

  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.nodes_reclaimed, 0u)
      << "a stale announcement must fail tag revalidation";
  EXPECT_EQ(pool_->free_count(), free0) << "free node double-released";
}

// An announcement whose tag DOES still match — the announcer died between
// its winning head CAS and release(), leaving the node detached,
// unreachable, and named by its live tag — is exactly what the sweep must
// reclaim. (The same window driven through the real dequeue path, marker
// and all, is covered by CrashPointTest/LockFree; this pins the pool-level
// arithmetic in isolation.)
TEST_F(LockFreeRecoveryTest, DeadAnnouncersDetachedNodeIsReclaimed) {
  const std::uint32_t free0 = pool_->free_count();
  ChildProcess victim = ChildProcess::spawn([&] {
    // Model the post-CAS pre-release state directly: the node is allocated
    // (owner-stamped, off the free list), in no queue, and announced under
    // its current lf_next tag.
    const ShmIndex idx = pool_->allocate();
    if (idx == kNullIndex) return 1;
    const int slot = pool_->announce_slot();
    if (slot < 0) return 1;
    pool_->announce_dequeue(
        slot, idx, lf_tag(pool_->lf_next(idx).load(std::memory_order_acquire)));
    return 0;  // dies without release() or clear_announce()
  });
  ASSERT_EQ(victim.join(), 0);
  ASSERT_EQ(pool_->free_count(), free0 - 1);

  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.nodes_reclaimed, 1u)
      << "matching-tag announcement of a dead process must reclaim";
  EXPECT_EQ(pool_->free_count(), free0);

  // A second sweep is a no-op: the reclaim released the node (bumping its
  // tag and zeroing its owner), so neither pass can touch it again.
  const RecoveryStats again = sweep();
  EXPECT_EQ(again.nodes_reclaimed, 0u) << "double release through stale slot";
  EXPECT_EQ(pool_->free_count(), free0);
}

}  // namespace
}  // namespace ulipc
