#include "runtime/native_platform.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/shm_channel.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class NativePlatformTest : public ::testing::Test {
 protected:
  NativePlatformTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 2;
    cfg.queue_capacity = 8;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
  }

  NativeEndpoint& srv() { return channel_->server_endpoint(); }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
};

TEST_F(NativePlatformTest, QueueOpsRoundTrip) {
  NativePlatform p;
  EXPECT_TRUE(p.queue_empty(srv()));
  EXPECT_TRUE(p.enqueue(srv(), Message(Op::kEcho, 1, 2.5)));
  EXPECT_FALSE(p.queue_empty(srv()));
  Message m;
  EXPECT_TRUE(p.dequeue(srv(), &m));
  EXPECT_DOUBLE_EQ(m.value, 2.5);
  EXPECT_FALSE(p.dequeue(srv(), &m));
}

TEST_F(NativePlatformTest, EnqueueReportsFull) {
  NativePlatform p;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(p.enqueue(srv(), Message(Op::kEcho, 0, 0.0)));
  }
  EXPECT_FALSE(p.enqueue(srv(), Message(Op::kEcho, 0, 0.0)));
}

// A reply endpoint is its ring alone, sized at twice the queue capacity:
// with queue_capacity = 8 it takes exactly 16 replies, then reports full
// (the protocols' queue-full path takes over from there).
using SpscRingReplyEndpointTest = NativePlatformTest;

TEST_F(SpscRingReplyEndpointTest, HoldsTwiceTheQueueCapacity) {
  NativePlatform p;
  NativeEndpoint& ep = channel_->client_endpoint(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(p.enqueue(ep, Message(Op::kEcho, 0, double(i)))) << i;
  }
  EXPECT_FALSE(p.enqueue(ep, Message(Op::kEcho, 0, 16.0)));
  Message m;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(p.dequeue(ep, &m));
    EXPECT_DOUBLE_EQ(m.value, double(i));
  }
  EXPECT_TRUE(p.queue_empty(ep));
}

TEST_F(NativePlatformTest, AwakeFlagSemantics) {
  NativePlatform p;
  EXPECT_TRUE(p.awake_is_set(srv()));
  p.clear_awake(srv());
  EXPECT_FALSE(p.awake_is_set(srv()));
  EXPECT_FALSE(p.tas_awake(srv())) << "first tas after clear returns 0";
  EXPECT_TRUE(p.tas_awake(srv())) << "second tas returns 1";
  p.set_awake(srv());
  EXPECT_TRUE(p.awake_is_set(srv()));
}

TEST_F(NativePlatformTest, FutexSemaphorePV) {
  NativePlatform::Config cfg;
  cfg.sem = SemKind::kFutex;
  NativePlatform p(cfg);
  p.sem_v(srv());
  p.sem_p(srv());  // must not block
  EXPECT_EQ(srv().fsem.value(), 0u);
}

TEST_F(NativePlatformTest, SysvSemaphorePV) {
  NativePlatform::Config cfg;
  cfg.sem = SemKind::kSysv;
  NativePlatform p(cfg);
  p.sem_v(srv());
  EXPECT_EQ(SysvSemaphoreSet::value(srv().vsem), 1);
  p.sem_p(srv());
  EXPECT_EQ(SysvSemaphoreSet::value(srv().vsem), 0);
}

TEST_F(NativePlatformTest, SemBlocksAcrossThreads) {
  NativePlatform p;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    NativePlatform p2;
    p2.sem_p(srv());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  p.sem_v(srv());
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_F(NativePlatformTest, SleepSecondsHonorsConfiguredScale) {
  NativePlatform::Config cfg;
  cfg.full_sleep_ns = 2'000'000;  // "1 second" compressed to 2 ms for tests
  NativePlatform p(cfg);
  const std::int64_t t0 = p.time_ns();
  p.sleep_seconds(1);
  const std::int64_t elapsed = p.time_ns() - t0;
  EXPECT_GE(elapsed, 2'000'000);
  EXPECT_LT(elapsed, 500'000'000);
}

TEST_F(NativePlatformTest, WorkBurnsCpu) {
  NativePlatform p;
  const std::int64_t t0 = p.time_ns();
  p.work_us(2'000);  // 2 ms
  EXPECT_GE(p.time_ns() - t0, 500'000);
}

TEST_F(NativePlatformTest, TimeIsMonotonic) {
  NativePlatform p;
  const std::int64_t a = p.time_ns();
  const std::int64_t b = p.time_ns();
  EXPECT_GE(b, a);
}

TEST_F(NativePlatformTest, CountersAreProcessLocalState) {
  NativePlatform p;
  EXPECT_EQ(p.counters().sends, 0u);
  p.counters().sends = 5;
  NativePlatform q;
  EXPECT_EQ(q.counters().sends, 0u);
}

TEST_F(NativePlatformTest, YieldAndBusyWaitReturn) {
  NativePlatform p;          // uniprocessor flavour: busy_wait yields
  p.yield();
  p.busy_wait(srv());
  p.poll_queue(srv());
  NativePlatform::Config mp_cfg;
  mp_cfg.multiprocessor = true;
  mp_cfg.poll_slice_ns = 10'000;
  NativePlatform mp(mp_cfg);  // multiprocessor flavour: delay loop
  const std::int64_t t0 = now_ns();
  mp.busy_wait(srv());
  EXPECT_GE(now_ns() - t0, 2'000);
  SUCCEED();
}

// A client reply endpoint with several repliers: four producer threads
// push batches through NativePlatform::enqueue_batch while one consumer
// drains it. The ring is small (16 slots), so it keeps filling, and
// producers retry the rest of a batch once it has room. Every message must
// arrive exactly once, and each producer's in the order it sent them —
// which needs the producers serialized by the ring's producer lock.
using SpscRingMultiProducerTest = NativePlatformTest;

TEST_F(SpscRingMultiProducerTest, FourBatchProducersKeepPerProducerFifo) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20'000;
  NativeEndpoint& ep = channel_->client_endpoint(0);
  ASSERT_NE(ep.ring.get(), nullptr);

  // A broken ring can wedge either side (full forever, or a head behind
  // the tail): every loop also stops at this deadline, so a defect fails
  // the test instead of hanging it. The clock is read only on the idle
  // path: a clock read between every two enqueues spaces the producers out
  // so much that they hardly ever race, even without the lock.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto expired = [&] {
    return std::chrono::steady_clock::now() > deadline;
  };
  std::atomic<bool> full_seen{false};
  std::atomic<std::uint32_t> finished{0};
  std::vector<std::thread> producers;
  for (std::uint32_t id = 0; id < kProducers; ++id) {
    producers.emplace_back([&, id] {
      NativePlatform p;
      Message burst[7];
      std::uint32_t seq = 0;
      while (seq < kPerProducer) {
        // Batch sizes cycle 1..7, so batches straddle the ring's end.
        const std::uint32_t n =
            std::min(1 + seq % 7, kPerProducer - seq);
        for (std::uint32_t i = 0; i < n; ++i) {
          burst[i] = Message(Op::kEcho, id, static_cast<double>(seq + i));
        }
        std::uint32_t done = 0;
        while (done < n) {
          const std::uint32_t k = p.enqueue_batch(ep, burst + done, n - done);
          if (k < n - done) full_seen.store(true, std::memory_order_relaxed);
          if (k == 0) {
            if (expired()) break;
            sched_yield();
          }
          done += k;
        }
        if (done < n) break;
        seq += n;
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }

  // Hold the consumer back until a producer has found the ring full, so the
  // retry-on-full path is exercised on every run.
  while (!full_seen.load(std::memory_order_relaxed) && !expired()) {
    sched_yield();
  }
  EXPECT_TRUE(full_seen.load()) << "the ring never filled";

  // Consume until every producer has finished and the endpoint is empty
  // (the finished count is read before the dequeue that comes back empty).
  // Small batches keep the ring near full, so the producers keep racing
  // for the same few free slots.
  NativePlatform c;
  std::array<std::uint32_t, kProducers> next{};
  std::uint32_t misordered = 0;
  std::uint32_t received = 0;
  Message out[4];
  while (received <= kProducers * kPerProducer) {
    const bool all_sent =
        finished.load(std::memory_order_acquire) == kProducers;
    const std::uint32_t k = c.dequeue_batch(ep, out, 4);
    if (k == 0) {
      if (all_sent || expired()) break;
      sched_yield();
      continue;
    }
    received += k;
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t id = out[i].channel;
      if (id < kProducers && out[i].value == static_cast<double>(next[id])) {
        ++next[id];
      } else if (misordered++ == 0) {
        ADD_FAILURE() << "producer " << id << " sent seq " << out[i].value
                      << " out of order";
      }
    }
  }
  for (std::thread& t : producers) t.join();
  EXPECT_FALSE(expired()) << "producers or consumer wedged";
  EXPECT_EQ(misordered, 0u);
  EXPECT_EQ(received, kProducers * kPerProducer);
  for (std::uint32_t id = 0; id < kProducers; ++id) {
    EXPECT_EQ(next[id], kPerProducer) << "producer " << id;
  }
  EXPECT_TRUE(c.queue_empty(ep)) << "a message was left behind";
}

}  // namespace
}  // namespace ulipc
