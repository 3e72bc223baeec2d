#include "queue/ms_two_lock_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "explore/invariants.hpp"
#include "queue/msg_queue.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class TwoLockQueueTest : public ::testing::Test {
 protected:
  TwoLockQueueTest()
      : region_(ShmRegion::create_anonymous(1024 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, 64)) {}

  TwoLockQueue* make_queue(std::uint32_t capacity = 0) {
    return TwoLockQueue::create(arena_, pool_, capacity);
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
};

TEST_F(TwoLockQueueTest, StartsEmpty) {
  TwoLockQueue* q = make_queue();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
  Message m;
  EXPECT_FALSE(q->dequeue(&m));
}

TEST_F(TwoLockQueueTest, FifoOrder) {
  TwoLockQueue* q = make_queue();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(i))));
  }
  EXPECT_EQ(q->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    Message m;
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, static_cast<double>(i));
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, MessageFieldsSurviveTransit) {
  TwoLockQueue* q = make_queue();
  ASSERT_TRUE(q->enqueue(Message(Op::kCompute, 5, 3.75, 0xABCD)));
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_EQ(m.opcode, Op::kCompute);
  EXPECT_EQ(m.channel, 5u);
  EXPECT_DOUBLE_EQ(m.value, 3.75);
  EXPECT_EQ(m.ext_offset, 0xABCDu);
}

TEST_F(TwoLockQueueTest, CapacityBoundRejectsWhenFull) {
  TwoLockQueue* q = make_queue(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  }
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 0.0))) << "queue full";
  Message m;
  EXPECT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0))) << "space reclaimed";
}

TEST_F(TwoLockQueueTest, PoolExhaustionReportsFull) {
  // Pool has 64 nodes; each queue consumes one dummy.
  TwoLockQueue* q = make_queue();
  int enqueued = 0;
  while (q->enqueue(Message(Op::kEcho, 0, 0.0))) ++enqueued;
  EXPECT_EQ(enqueued, 63) << "64 nodes - 1 dummy";
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)))
      << "released node must be reusable";
}

TEST_F(TwoLockQueueTest, NodesRecycleThroughPool) {
  TwoLockQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  for (int round = 0; round < 500; ++round) {
    ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(round))));
    Message m;
    ASSERT_TRUE(q->dequeue(&m));
    EXPECT_DOUBLE_EQ(m.value, static_cast<double>(round));
  }
  EXPECT_EQ(pool_->free_count(), free_before);
}

TEST_F(TwoLockQueueTest, TwoQueuesShareOnePool) {
  TwoLockQueue* a = make_queue();
  TwoLockQueue* b = make_queue();
  ASSERT_TRUE(a->enqueue(Message(Op::kEcho, 0, 1.0)));
  ASSERT_TRUE(b->enqueue(Message(Op::kEcho, 0, 2.0)));
  Message m;
  ASSERT_TRUE(a->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 1.0);
  ASSERT_TRUE(b->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 2.0);
}

TEST_F(TwoLockQueueTest, InterleavedEnqueueDequeue) {
  TwoLockQueue* q = make_queue();
  int next_in = 0;
  int next_out = 0;
  // Sawtooth fill levels exercise the empty<->nonempty transition.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < (round % 5) + 1; ++i) {
      ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, static_cast<double>(next_in++))));
    }
    Message m;
    while (q->dequeue(&m)) {
      EXPECT_DOUBLE_EQ(m.value, static_cast<double>(next_out++));
    }
    EXPECT_EQ(next_in, next_out);
  }
}

TEST_F(TwoLockQueueTest, EmptyProbeConsistentWithDequeue) {
  TwoLockQueue* q = make_queue();
  EXPECT_TRUE(q->empty());
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  EXPECT_FALSE(q->empty());
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, BatchFifoAcrossBatchBoundaries) {
  TwoLockQueue* q = make_queue();
  Message in[15];
  for (int i = 0; i < 15; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 5), 5u);
  EXPECT_EQ(q->enqueue_batch(in + 5, 5), 5u);
  EXPECT_EQ(q->enqueue_batch(in + 10, 5), 5u);
  EXPECT_EQ(q->size(), 15u);
  Message out[15];
  EXPECT_EQ(q->dequeue_batch(out, 7), 7u);
  EXPECT_EQ(q->dequeue_batch(out + 7, 15), 8u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i))
        << "order must survive uneven batch boundaries";
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, BatchPartialOnCapacityBound) {
  TwoLockQueue* q = make_queue(4);
  const std::uint32_t free_before = pool_->free_count();
  Message in[6];
  for (int i = 0; i < 6; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 6), 4u) << "capacity caps the batch";
  EXPECT_EQ(pool_->free_count(), free_before - 4)
      << "only the admitted messages hold nodes";
  EXPECT_EQ(q->enqueue_batch(in + 4, 2), 0u) << "full queue takes nothing";
  EXPECT_EQ(pool_->free_count(), free_before - 4);
  Message out[8];
  EXPECT_EQ(q->dequeue_batch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
  EXPECT_EQ(pool_->free_count(), free_before);
}

TEST_F(TwoLockQueueTest, BatchPartialOnPoolExhaustion) {
  // Pool has 64 nodes and the queue consumed one dummy: a 100-message batch
  // must land exactly the 63 that have nodes and report the short count.
  TwoLockQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  Message in[100];
  for (int i = 0; i < 100; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 100), 63u);
  EXPECT_EQ(q->size(), 63u);
  EXPECT_EQ(pool_->free_count(), 0u) << "the short chain took every node";
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  Message out[100];
  EXPECT_EQ(q->dequeue_batch(out, 100), 63u);
  for (int i = 0; i < 63; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
  EXPECT_EQ(pool_->free_count(), free_before)
      << "every node (and none of the phantom 37) returned to the pool";
}

TEST_F(TwoLockQueueTest, BatchRoomRaceCutReturnsTheSuffix) {
  // Two batch producers both size their chains from an empty queue (room
  // 6 each), then queue up on the tail lock the test holds. The first one
  // in splices all 4 of its messages; the second finds room for 2, cuts
  // its chain and hands the 2-node suffix back in one release_chain.
  TwoLockQueue* q = make_queue(6);
  const std::uint32_t free_before = pool_->free_count();
  (void)q->tail_lock().lock();
  std::uint32_t got[2] = {};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      Message in[4];
      for (int i = 0; i < 4; ++i) in[i] = Message(Op::kEcho, p, double(i));
      got[p] = q->enqueue_batch(in, 4);
    });
  }
  // Both chains are allocated once the pool is 8 nodes down (read under
  // the pool lock: free_count() alone is a racy snapshot).
  const auto free_now = [&] {
    RobustGuard g(pool_->lock());
    return pool_->free_count();
  };
  while (free_now() != free_before - 8) std::this_thread::yield();
  q->tail_lock().unlock();
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(std::min(got[0], got[1]), 2u) << "the loser keeps the room left";
  EXPECT_EQ(std::max(got[0], got[1]), 4u);
  EXPECT_EQ(q->size(), 6u);
  EXPECT_EQ(pool_->free_count(), free_before - 6)
      << "the cut suffix went back to the pool";
  Message out[8];
  ASSERT_EQ(q->dequeue_batch(out, 8), 6u);
  double next[2] = {0.0, 0.0};
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, next[out[i].channel]) << "per-producer FIFO";
    next[out[i].channel] += 1.0;
  }
  EXPECT_EQ(pool_->free_count(), free_before);
}

TEST_F(TwoLockQueueTest, BatchDequeueOnEmptyAndZeroCounts) {
  TwoLockQueue* q = make_queue();
  Message out[4];
  EXPECT_EQ(q->dequeue_batch(out, 4), 0u);
  EXPECT_EQ(q->enqueue_batch(nullptr, 0), 0u);
  EXPECT_EQ(q->dequeue_batch(nullptr, 0), 0u);
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, ScalarAndBatchInterleaveFifo) {
  TwoLockQueue* q = make_queue();
  Message in[3] = {Message(Op::kEcho, 0, 1.0), Message(Op::kEcho, 0, 2.0),
                   Message(Op::kEcho, 0, 3.0)};
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  ASSERT_EQ(q->enqueue_batch(in, 3), 3u);
  ASSERT_TRUE(q->enqueue(Message(Op::kEcho, 0, 4.0)));
  Message m;
  ASSERT_TRUE(q->dequeue(&m));
  EXPECT_DOUBLE_EQ(m.value, 0.0);
  Message out[8];
  ASSERT_EQ(q->dequeue_batch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i + 1));
  }
  EXPECT_TRUE(q->empty());
}

TEST_F(TwoLockQueueTest, ThreadedBatchProducerConsumer) {
  NodePool* pool = NodePool::create(arena_, 256);
  TwoLockQueue* q = TwoLockQueue::create(arena_, pool, 128);
  constexpr int kMessages = 50'000;
  std::thread producer([&] {
    Message burst[8];
    int sent = 0;
    while (sent < kMessages) {
      const int n = std::min(8, kMessages - sent);
      for (int i = 0; i < n; ++i) {
        burst[i] = Message(Op::kEcho, 0, static_cast<double>(sent + i));
      }
      std::uint32_t done = 0;
      while (done < static_cast<std::uint32_t>(n)) {
        done += q->enqueue_batch(burst + done,
                                 static_cast<std::uint32_t>(n) - done);
      }
      sent += n;
    }
  });
  Message out[16];
  int received = 0;
  while (received < kMessages) {
    const std::uint32_t k = q->dequeue_batch(out, 16);
    for (std::uint32_t i = 0; i < k; ++i) {
      ASSERT_DOUBLE_EQ(out[i].value, static_cast<double>(received + i));
    }
    received += static_cast<int>(k);
  }
  producer.join();
  EXPECT_TRUE(q->empty());
}

// A recovery sweep reseats size_ to the reachable count. Running during
// live traffic (a pool worker's reap does), it must not erase an enqueue or
// dequeue in flight: the count would wrap below zero once that message
// left, and the queue would then read as full forever.
TEST_F(TwoLockQueueTest, SweepRacingLiveTrafficKeepsTheCountExact) {
  constexpr std::uint32_t kCapacity = 8;
  TwoLockQueue* q = make_queue(kCapacity);
  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    std::vector<char> mark(pool_->capacity());
    while (!done.load(std::memory_order_acquire)) (void)q->mark_reachable(mark);
  });
  int refused = 0;
  Message burst[4];
  Message out[4];
  for (int i = 0; i < 100'000 && refused == 0; ++i) {
    Message m(Op::kEcho, 0, static_cast<double>(i));
    if (!q->enqueue(m) || !q->dequeue(&m)) ++refused;
    for (auto& b : burst) b = m;
    if (q->enqueue_batch(burst, 4) != 4 || q->dequeue_batch(out, 4) != 4) {
      ++refused;
    }
  }
  done.store(true, std::memory_order_release);
  sweeper.join();
  EXPECT_EQ(refused, 0);
  EXPECT_EQ(q->size(), 0u);
  for (std::uint32_t i = 0; i < kCapacity; ++i) {
    EXPECT_TRUE(q->enqueue(Message(Op::kEcho, 0, 1.0)));
  }
}

// The batch paths through the MsgQueue facade, under both engines: every
// path must leave the node pool exactly conserved.
class NodePoolBatchTest : public ::testing::TestWithParam<QueueEngine> {
 protected:
  NodePoolBatchTest()
      : region_(ShmRegion::create_anonymous(1024 * 1024)),
        arena_(ShmArena::format(region_)),
        pool_(NodePool::create(arena_, 64)) {}

  MsgQueue* make_queue(std::uint32_t capacity = 0) {
    queues_.push_back(MsgQueue::create(arena_, pool_, capacity, GetParam()));
    return queues_.back();
  }

  std::string invariants() {
    return explore::check_invariants(*pool_, queues_).to_string();
  }

  ShmRegion region_;
  ShmArena arena_;
  NodePool* pool_;
  std::vector<MsgQueue*> queues_;
};

TEST_P(NodePoolBatchTest, PartialOnCapacityBoundConserves) {
  MsgQueue* q = make_queue(4);
  const std::uint32_t free_before = pool_->free_count();
  Message in[6];
  for (int i = 0; i < 6; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 6), 4u);
  EXPECT_EQ(pool_->free_count(), free_before - 4);
  EXPECT_EQ(q->enqueue_batch(in, 6), 0u);
  EXPECT_EQ(pool_->free_count(), free_before - 4);
  EXPECT_EQ(invariants(), "ok");
  Message out[8];
  EXPECT_EQ(q->dequeue_batch(out, 8), 4u);
  EXPECT_EQ(pool_->free_count(), free_before);
  EXPECT_EQ(invariants(), "ok");
}

TEST_P(NodePoolBatchTest, PartialOnPoolExhaustionConserves) {
  MsgQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  Message in[100];
  for (int i = 0; i < 100; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 100), free_before);
  EXPECT_EQ(pool_->free_count(), 0u);
  EXPECT_EQ(q->size(), free_before) << "no phantom reservation survives";
  EXPECT_EQ(q->enqueue_batch(in, 1), 0u);
  EXPECT_EQ(invariants(), "ok");
  Message out[100];
  EXPECT_EQ(q->dequeue_batch(out, 100), free_before);
  for (std::uint32_t i = 0; i < free_before; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
  EXPECT_EQ(pool_->free_count(), free_before);
  EXPECT_EQ(invariants(), "ok");
}

TEST_P(NodePoolBatchTest, DrainReturnsEveryNode) {
  MsgQueue* q = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  Message in[50];
  for (int i = 0; i < 50; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  ASSERT_EQ(q->enqueue_batch(in, 50), 50u);
  EXPECT_EQ(q->drain(), 50u);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool_->free_count(), free_before);
  EXPECT_EQ(q->drain(), 0u);
  EXPECT_EQ(invariants(), "ok");
}

TEST_P(NodePoolBatchTest, BatchesMixWithScalarOpsAcrossQueues) {
  MsgQueue* a = make_queue(16);
  MsgQueue* b = make_queue();
  const std::uint32_t free_before = pool_->free_count();
  std::mt19937 rng(3);
  std::uint32_t queued = 0;
  Message buf[16];
  for (int step = 0; step < 3000; ++step) {
    MsgQueue* q = (rng() & 1) != 0 ? a : b;
    const std::uint32_t n = 1 + rng() % 16;
    for (std::uint32_t i = 0; i < n; ++i) buf[i] = Message(Op::kEcho, 0, 1.0);
    switch (rng() % 4) {
      case 0:
        queued += q->enqueue_batch(buf, n);
        break;
      case 1:
        queued += q->enqueue(buf[0]) ? 1 : 0;
        break;
      case 2:
        queued -= q->dequeue_batch(buf, n);
        break;
      default:
        queued -= q->dequeue(buf) ? 1 : 0;
        break;
    }
    ASSERT_EQ(pool_->free_count(), free_before - queued) << "step " << step;
  }
  EXPECT_EQ(a->drain() + b->drain(), queued);
  EXPECT_EQ(pool_->free_count(), free_before);
  EXPECT_EQ(invariants(), "ok");
}

TEST_P(NodePoolBatchTest, FourThreadBatchSoakConserves) {
  // Two batch producers and two consumers (one batched, one scalar) share
  // a small bounded queue, so the room check, pool exhaustion, and the
  // chain ops all run contended on real cores.
  MsgQueue* q = make_queue(24);
  const std::uint32_t free_before = pool_->free_count();
  constexpr int kPerProducer = 40'000;
  std::atomic<int> consumed{0};
  std::atomic<long> sum_in{0};
  std::atomic<long> sum_out{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      std::mt19937 rng(static_cast<std::uint32_t>(p) + 11);
      Message burst[16];
      int sent = 0;
      while (sent < kPerProducer) {
        const int n = std::min<int>(1 + static_cast<int>(rng() % 16),
                                    kPerProducer - sent);
        for (int i = 0; i < n; ++i) {
          burst[i] = Message(Op::kEcho, 0, double(sent + i));
        }
        int done = 0;
        while (done < n) {
          done += static_cast<int>(q->enqueue_batch(
              burst + done, static_cast<std::uint32_t>(n - done)));
        }
        for (int i = 0; i < n; ++i) {
          sum_in.fetch_add(sent + i, std::memory_order_relaxed);
        }
        sent += n;
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      Message out[16];
      while (consumed.load(std::memory_order_relaxed) < 2 * kPerProducer) {
        const std::uint32_t k =
            c == 0 ? q->dequeue_batch(out, 16) : (q->dequeue(out) ? 1u : 0u);
        long s = 0;
        for (std::uint32_t i = 0; i < k; ++i) {
          s += static_cast<long>(out[i].value);
        }
        sum_out.fetch_add(s, std::memory_order_relaxed);
        consumed.fetch_add(static_cast<int>(k), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(sum_out.load(), sum_in.load());
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(pool_->free_count(), free_before);
  EXPECT_EQ(invariants(), "ok");
}

INSTANTIATE_TEST_SUITE_P(Engines, NodePoolBatchTest,
                         ::testing::Values(QueueEngine::kTwoLock,
                                           QueueEngine::kLockFree),
                         [](const ::testing::TestParamInfo<QueueEngine>& i) {
                           return i.param == QueueEngine::kTwoLock
                                      ? "TwoLock"
                                      : "LockFree";
                         });

}  // namespace
}  // namespace ulipc
