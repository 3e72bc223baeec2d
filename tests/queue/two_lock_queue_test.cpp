#include "queue/ms_two_lock_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

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
  Message in[6];
  for (int i = 0; i < 6; ++i) in[i] = Message(Op::kEcho, 0, double(i));
  EXPECT_EQ(q->enqueue_batch(in, 6), 4u) << "capacity caps the batch";
  EXPECT_EQ(q->enqueue_batch(in + 4, 2), 0u) << "full queue takes nothing";
  Message out[8];
  EXPECT_EQ(q->dequeue_batch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
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
  EXPECT_FALSE(q->enqueue(Message(Op::kEcho, 0, 0.0)));
  Message out[100];
  EXPECT_EQ(q->dequeue_batch(out, 100), 63u);
  for (int i = 0; i < 63; ++i) {
    EXPECT_DOUBLE_EQ(out[i].value, double(i));
  }
  EXPECT_EQ(pool_->free_count(), free_before)
      << "every node (and none of the phantom 37) returned to the pool";
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

}  // namespace
}  // namespace ulipc
