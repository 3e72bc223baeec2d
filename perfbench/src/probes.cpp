// Layer probes for the traced run: the shm and queue primitives the
// workloads are built from, each timed in isolation through its public
// interface on pinned threads. Each figure is the median of several timed
// blocks, so one preempted block does not move it.
#include <sched.h>

#include <atomic>
#include <thread>

#include "bench.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "host.hpp"
#include "queue/msg_pool.hpp"
#include "queue/msg_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/futex_semaphore.hpp"
#include "shm/shm_allocator.hpp"
#include "shm/shm_region.hpp"
#include "shm/tas_flag.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using ulipc::Message;
using ulipc::Op;
using ulipc::QueueEngine;
using ulipc::TscClock;

constexpr int kBlocks = 9;
constexpr int kOpsPerBlock = 50'000;
constexpr int kWakeSamples = 1'000;
constexpr std::uint32_t kMpscBatch = 16;
constexpr std::uint32_t kMpscPerProducer = 100'000;
constexpr int kMpscRounds = 5;

/// Median over kBlocks blocks of ns per call of `op`, after one warm block.
template <typename Fn>
double ns_per_op(Fn&& op) {
  std::vector<double> blocks;
  for (int b = 0; b <= kBlocks; ++b) {
    const std::uint64_t t0 = TscClock::now();
    for (int i = 0; i < kOpsPerBlock; ++i) op();
    const std::uint64_t t1 = TscClock::now();
    if (b > 0) {
      blocks.push_back(static_cast<double>(t1 - t0) * ns_per_tick() /
                       kOpsPerBlock);
    }
  }
  return median(blocks);
}

/// V on one pinned thread until P returns on another, the sleeper parked
/// in the kernel before each V.
double futex_wake_xcpu_p50_us(int waker_cpu, int sleeper_cpu) {
  ulipc::FutexSemaphore sem;
  std::atomic<std::uint64_t> woke_tick{0};
  std::atomic<int> woke{0};
  Histogram h;
  std::thread sleeper([&] {
    ulipc::pin_to_cpu(sleeper_cpu);
    for (int i = 0; i < kWakeSamples; ++i) {
      sem.wait();
      woke_tick.store(TscClock::now(), std::memory_order_relaxed);
      woke.store(i + 1, std::memory_order_release);
    }
  });
  ulipc::pin_to_cpu(waker_cpu);
  const auto park_ticks = static_cast<std::uint64_t>(20'000 / ns_per_tick());
  for (int i = 0; i < kWakeSamples; ++i) {
    while (sem.waiter_count() == 0) {
    }
    // The waiter count rises just before the futex syscall; give the
    // sleeper time to actually park.
    spin_until_tick(TscClock::now() + park_ticks);
    const std::uint64_t t0 = TscClock::now();
    sem.post();
    while (woke.load(std::memory_order_acquire) != i + 1) {
    }
    const std::uint64_t t1 = woke_tick.load(std::memory_order_relaxed);
    h.record(static_cast<std::uint64_t>(static_cast<double>(t1 - t0) *
                                        ns_per_tick()));
  }
  sleeper.join();
  return h.percentile(50) / 1e3;
}

/// Two producers batch-enqueue kMpscBatch at a time, one consumer drains:
/// wall ns per message, median of kMpscRounds rounds.
double mpsc2_ns_per_msg(QueueEngine engine, const CpuPlan& plan) {
  std::vector<double> rounds;
  for (int r = 0; r < kMpscRounds; ++r) {
    ulipc::ShmRegion region = ulipc::ShmRegion::create_anonymous(1 << 20);
    ulipc::ShmArena arena = ulipc::ShmArena::format(region);
    ulipc::NodePool* pool = ulipc::NodePool::create(arena, 1024);
    ulipc::MsgQueue* q = ulipc::MsgQueue::create(arena, pool, 0, engine);
    std::atomic<int> go{0};
    const auto producer = [&](int cpu, std::uint32_t id) {
      ulipc::pin_to_cpu(cpu);
      Message batch[kMpscBatch];
      while (go.load(std::memory_order_acquire) == 0) {
      }
      for (std::uint32_t sent = 0; sent < kMpscPerProducer;) {
        for (std::uint32_t i = 0; i < kMpscBatch; ++i) {
          batch[i] = Message(Op::kEcho, id, static_cast<double>(sent + i));
        }
        std::uint32_t done = 0;
        while (done < kMpscBatch) {
          done += q->enqueue_batch(batch + done, kMpscBatch - done);
        }
        sent += kMpscBatch;
      }
    };
    std::thread p1(producer, plan.cpus[1], 1);
    std::thread p2(producer, plan.cpus[2], 2);
    ulipc::pin_to_cpu(plan.cpus[0]);
    Message out[64];
    const std::uint64_t total = 2ULL * kMpscPerProducer;
    std::uint64_t got = 0;
    const std::uint64_t t0 = TscClock::now();
    go.store(1, std::memory_order_release);
    while (got < total) got += q->dequeue_batch(out, 64);
    const std::uint64_t t1 = TscClock::now();
    p1.join();
    p2.join();
    rounds.push_back(static_cast<double>(t1 - t0) * ns_per_tick() /
                     static_cast<double>(total));
  }
  return median(rounds);
}

}  // namespace

std::vector<Metric> run_probes(const CpuPlan& plan) {
  std::vector<Metric> m;
  ulipc::pin_to_cpu(plan.cpus[0]);

  ulipc::FutexSemaphore sem;
  m.push_back({"shm.futex_vp_ns", ns_per_op([&] {
                 sem.post();
                 sem.wait();
               }),
               "ns"});
  m.push_back({"shm.sched_yield_ns", ns_per_op([] { sched_yield(); }), "ns"});
  ulipc::AwakeFlag flag;
  m.push_back({"shm.tas_clear_ns", ns_per_op([&] {
                 (void)flag.tas();
                 flag.clear();
               }),
               "ns"});
  m.push_back({"shm.futex_wake_xcpu_p50_us",
               futex_wake_xcpu_p50_us(plan.cpus[0], plan.cpus[1]), "us"});

  ulipc::ShmRegion region = ulipc::ShmRegion::create_anonymous(1 << 20);
  ulipc::ShmArena arena = ulipc::ShmArena::format(region);
  ulipc::NodePool* pool = ulipc::NodePool::create(arena, 256);
  const Message msg(Op::kEcho, 0, 1.0);
  Message out;
  for (const QueueEngine e : {QueueEngine::kTwoLock, QueueEngine::kLockFree}) {
    ulipc::MsgQueue* q = ulipc::MsgQueue::create(arena, pool, 0, e);
    m.push_back({std::string("queue.pair_ns.") + ulipc::queue_engine_name(e),
                 ns_per_op([&] {
                   (void)q->enqueue(msg);
                   (void)q->dequeue(&out);
                 }),
                 "ns"});
  }
  ulipc::SpscRing* ring = ulipc::SpscRing::create(arena, 64);
  m.push_back({"queue.spsc_pair_ns", ns_per_op([&] {
                 (void)ring->enqueue(msg);
                 (void)ring->dequeue(&out);
               }),
               "ns"});
  m.push_back({"queue.node_alloc_release_ns", ns_per_op([&] {
                 pool->release(pool->allocate());
               }),
               "ns"});
  for (const QueueEngine e : {QueueEngine::kTwoLock, QueueEngine::kLockFree}) {
    m.push_back(
        {std::string("queue.mpsc2_ns_per_msg.") + ulipc::queue_engine_name(e),
         mpsc2_ns_per_msg(e, plan), "ns"});
  }
  return m;
}

}  // namespace perfbench
