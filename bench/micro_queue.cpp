// google-benchmark microbenchmarks for the queue substrate: the three
// receive-endpoint engines — the two-lock ring (SpscRing with shared
// consumers, both robust locks taken exactly as NativePlatform takes
// them), the Michael & Scott two-lock queue and the lock-free M&S queue
// (both through the MsgQueue facade, so their numbers stay comparable
// with what channels actually pay) — plus the bare SPSC ring and the node
// pool, uncontended and under cross-thread contention.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "queue/msg_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"

namespace {

using namespace ulipc;

constexpr std::uint32_t kNodes = 4096;

/// One receive endpoint's queue of `engine`. A node queue is unbounded
/// over a kNodes pool; a ring holds kNodes messages.
struct QueueFixture {
  explicit QueueFixture(QueueEngine engine)
      : region(ShmRegion::create_anonymous(8 * 1024 * 1024)),
        arena(ShmArena::format(region)) {
    if (engine == QueueEngine::kRing) {
      ring = SpscRing::create(arena, kNodes, SpscRing::Consumers::kShared);
    } else {
      pool = NodePool::create(arena, kNodes);
      queue = MsgQueue::create(arena, pool, 0, engine);
    }
  }

  bool enqueue(const Message& msg) {
    if (ring == nullptr) return queue->enqueue(msg);
    RobustGuard producers(ring->producer_lock());
    return ring->enqueue(msg);
  }
  bool dequeue(Message* out) {
    if (ring == nullptr) return queue->dequeue(out);
    if (ring->empty()) return false;
    RobustGuard consumers(ring->consumer_lock());
    return ring->dequeue(out);
  }
  bool empty() const {
    return ring != nullptr ? ring->empty() : queue->empty();
  }

  ShmRegion region;
  ShmArena arena;
  NodePool* pool = nullptr;
  MsgQueue* queue = nullptr;
  SpscRing* ring = nullptr;
};

// Engine axis: each benchmark body is shared and registered once per
// engine under an explicit name — the historical BM_TwoLock* series keeps
// its exact names, and the BM_LockFree* and BM_Ring* twins land next to
// them (an Arg() would suffix every name with "/0").
void pair_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (auto _ : state) {
    f.enqueue(msg);
    f.dequeue(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_TwoLockEnqueueDequeuePair(benchmark::State& state) {
  pair_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeEnqueueDequeuePair(benchmark::State& state) {
  pair_body(state, QueueEngine::kLockFree);
}
void BM_RingEnqueueDequeuePair(benchmark::State& state) {
  pair_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockEnqueueDequeuePair);
BENCHMARK(BM_LockFreeEnqueueDequeuePair);
BENCHMARK(BM_RingEnqueueDequeuePair);

void enqueue_only_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  std::int64_t n = 0;
  for (auto _ : state) {
    if (!f.enqueue(msg)) {
      state.PauseTiming();
      while (f.dequeue(&out)) {
      }
      state.ResumeTiming();
    }
    ++n;
  }
  state.SetItemsProcessed(n);
}
void BM_TwoLockEnqueueOnly(benchmark::State& state) {
  enqueue_only_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeEnqueueOnly(benchmark::State& state) {
  enqueue_only_body(state, QueueEngine::kLockFree);
}
void BM_RingEnqueueOnly(benchmark::State& state) {
  enqueue_only_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockEnqueueOnly);
BENCHMARK(BM_LockFreeEnqueueOnly);
BENCHMARK(BM_RingEnqueueOnly);

void empty_probe_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.empty());
  }
}
void BM_TwoLockEmptyProbe(benchmark::State& state) {
  empty_probe_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeEmptyProbe(benchmark::State& state) {
  empty_probe_body(state, QueueEngine::kLockFree);
}
void BM_RingEmptyProbe(benchmark::State& state) {
  empty_probe_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockEmptyProbe);
BENCHMARK(BM_LockFreeEmptyProbe);
BENCHMARK(BM_RingEmptyProbe);

void failed_dequeue_body(benchmark::State& state, QueueEngine engine) {
  // The cost of the consumer's empty-queue checks (the two-lock engine's
  // C.1/C.3 lock round trip vs the lock-free engine's and the ring's
  // loads-only probes).
  QueueFixture f(engine);
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.dequeue(&out));
  }
}
void BM_TwoLockFailedDequeue(benchmark::State& state) {
  failed_dequeue_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeFailedDequeue(benchmark::State& state) {
  failed_dequeue_body(state, QueueEngine::kLockFree);
}
void BM_RingFailedDequeue(benchmark::State& state) {
  failed_dequeue_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockFailedDequeue);
BENCHMARK(BM_LockFreeFailedDequeue);
BENCHMARK(BM_RingFailedDequeue);

void contended_pingpong_body(benchmark::State& state, QueueEngine engine) {
  // Two roles on two threads: producer enqueues, consumer dequeues.
  // Measures per-message cost under head/tail lock separation (two-lock
  // queue and ring) vs CAS retry + helping (lock-free).
  QueueFixture f(engine);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    const Message msg(Op::kEcho, 0, 1.0);
    while (!stop.load(std::memory_order_relaxed)) {
      f.enqueue(msg);
    }
  });
  Message out;
  std::int64_t received = 0;
  for (auto _ : state) {
    while (!f.dequeue(&out)) {
    }
    ++received;
  }
  stop.store(true);
  producer.join();
  while (f.dequeue(&out)) {
  }
  state.SetItemsProcessed(received);
}
void BM_TwoLockContendedPingPong(benchmark::State& state) {
  contended_pingpong_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeContendedPingPong(benchmark::State& state) {
  contended_pingpong_body(state, QueueEngine::kLockFree);
}
void BM_RingContendedPingPong(benchmark::State& state) {
  contended_pingpong_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockContendedPingPong)->UseRealTime();
BENCHMARK(BM_LockFreeContendedPingPong)->UseRealTime();
BENCHMARK(BM_RingContendedPingPong)->UseRealTime();

void owner_vs_thief_body(benchmark::State& state, QueueEngine engine) {
  // A pool shard's shape: a client thread produces while a thief thread
  // competes with the measured owner for the messages. Items are the
  // owner's dequeues; the thief's share shows as lower owner throughput.
  QueueFixture f(engine);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    const Message msg(Op::kEcho, 0, 1.0);
    while (!stop.load(std::memory_order_relaxed)) f.enqueue(msg);
  });
  std::thread thief([&] {
    Message m;
    while (!stop.load(std::memory_order_relaxed)) f.dequeue(&m);
  });
  Message out;
  std::int64_t received = 0;
  for (auto _ : state) {
    while (!f.dequeue(&out)) {
    }
    ++received;
  }
  stop.store(true);
  producer.join();
  thief.join();
  while (f.dequeue(&out)) {
  }
  state.SetItemsProcessed(received);
}
void BM_TwoLockOwnerVsThief(benchmark::State& state) {
  owner_vs_thief_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeOwnerVsThief(benchmark::State& state) {
  owner_vs_thief_body(state, QueueEngine::kLockFree);
}
void BM_RingOwnerVsThief(benchmark::State& state) {
  owner_vs_thief_body(state, QueueEngine::kRing);
}
BENCHMARK(BM_TwoLockOwnerVsThief)->UseRealTime();
BENCHMARK(BM_LockFreeOwnerVsThief)->UseRealTime();
BENCHMARK(BM_RingOwnerVsThief)->UseRealTime();

void BM_SpscRingPair(benchmark::State& state) {
  ShmRegion region = ShmRegion::create_anonymous(1 << 20);
  ShmArena arena = ShmArena::format(region);
  SpscRing* ring = SpscRing::create(arena, 1024);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (auto _ : state) {
    ring->enqueue(msg);
    ring->dequeue(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPair);

void BM_NodePoolAllocRelease(benchmark::State& state) {
  ShmRegion region = ShmRegion::create_anonymous(1 << 20);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 1024);
  for (auto _ : state) {
    const ShmIndex idx = pool->allocate();
    benchmark::DoNotOptimize(idx);
    pool->release(idx);
  }
}
BENCHMARK(BM_NodePoolAllocRelease);

}  // namespace

BENCHMARK_MAIN();
