// google-benchmark microbenchmarks for the queue substrate: both MsgQueue
// engines (the Michael & Scott two-lock queue and the lock-free M&S
// queue, measured through the dispatching facade so engine numbers stay
// comparable with what channels actually pay), the SPSC ring, and the
// node pool, uncontended and under cross-thread contention.
#include <benchmark/benchmark.h>

#include <thread>

#include "queue/msg_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/shm_region.hpp"

namespace {

using namespace ulipc;

struct QueueFixture {
  explicit QueueFixture(QueueEngine engine)
      : region(ShmRegion::create_anonymous(8 * 1024 * 1024)),
        arena(ShmArena::format(region)),
        pool(NodePool::create(arena, 4096)),
        queue(MsgQueue::create(arena, pool, 0, engine)) {}

  ShmRegion region;
  ShmArena arena;
  NodePool* pool;
  MsgQueue* queue;
};

// Engine axis: each benchmark body is shared and registered once per
// engine under an explicit name — the historical BM_TwoLock* series keeps
// its exact names, and the BM_LockFree* twins land next to them (an Arg()
// would suffix every name with "/0").
void pair_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (auto _ : state) {
    f.queue->enqueue(msg);
    f.queue->dequeue(&out);
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
BENCHMARK(BM_TwoLockEnqueueDequeuePair);
BENCHMARK(BM_LockFreeEnqueueDequeuePair);

void enqueue_only_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  std::int64_t n = 0;
  for (auto _ : state) {
    if (!f.queue->enqueue(msg)) {
      state.PauseTiming();
      while (f.queue->dequeue(&out)) {
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
BENCHMARK(BM_TwoLockEnqueueOnly);
BENCHMARK(BM_LockFreeEnqueueOnly);

void empty_probe_body(benchmark::State& state, QueueEngine engine) {
  QueueFixture f(engine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.queue->empty());
  }
}
void BM_TwoLockEmptyProbe(benchmark::State& state) {
  empty_probe_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeEmptyProbe(benchmark::State& state) {
  empty_probe_body(state, QueueEngine::kLockFree);
}
BENCHMARK(BM_TwoLockEmptyProbe);
BENCHMARK(BM_LockFreeEmptyProbe);

void failed_dequeue_body(benchmark::State& state, QueueEngine engine) {
  // The cost of the consumer's empty-queue checks (the two-lock engine's
  // C.1/C.3 lock round trip vs the lock-free engine's loads-only probe).
  QueueFixture f(engine);
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.queue->dequeue(&out));
  }
}
void BM_TwoLockFailedDequeue(benchmark::State& state) {
  failed_dequeue_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeFailedDequeue(benchmark::State& state) {
  failed_dequeue_body(state, QueueEngine::kLockFree);
}
BENCHMARK(BM_TwoLockFailedDequeue);
BENCHMARK(BM_LockFreeFailedDequeue);

void contended_pingpong_body(benchmark::State& state, QueueEngine engine) {
  // Two roles on two threads: producer enqueues, consumer dequeues.
  // Measures per-message cost under head/tail lock separation (two-lock)
  // vs CAS retry + helping (lock-free).
  QueueFixture f(engine);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    const Message msg(Op::kEcho, 0, 1.0);
    while (!stop.load(std::memory_order_relaxed)) {
      f.queue->enqueue(msg);
    }
  });
  Message out;
  std::int64_t received = 0;
  for (auto _ : state) {
    while (!f.queue->dequeue(&out)) {
    }
    ++received;
  }
  stop.store(true);
  producer.join();
  while (f.queue->dequeue(&out)) {
  }
  state.SetItemsProcessed(received);
}
void BM_TwoLockContendedPingPong(benchmark::State& state) {
  contended_pingpong_body(state, QueueEngine::kTwoLock);
}
void BM_LockFreeContendedPingPong(benchmark::State& state) {
  contended_pingpong_body(state, QueueEngine::kLockFree);
}
BENCHMARK(BM_TwoLockContendedPingPong)->UseRealTime();
BENCHMARK(BM_LockFreeContendedPingPong)->UseRealTime();

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
