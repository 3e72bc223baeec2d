// Table 1: measured times for primitive operations.
//
// The paper reports, on the 133 MHz SGI: enqueue/dequeue pair 3 us,
// msgsnd/msgrcv pair 37 us, and concurrent-yield loop trip times of
// 16/18/45 us for 1/2/4 processes (IBM column lost in the source text).
//
// This bench measures the same primitives natively on the host (modern
// hardware: expect 1-2 orders of magnitude faster) and echoes the simulator
// cost model, which is what the figure benches actually consume.
#include <sched.h>

#include <iostream>
#include <vector>

#include "benchsupport/args.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/table.hpp"
#include "queue/ms_two_lock_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/futex_semaphore.hpp"
#include "shm/process.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_barrier.hpp"
#include "shm/shm_region.hpp"
#include "shm/sysv_msg_queue.hpp"
#include "shm/sysv_semaphore.hpp"
#include "sim/machine.hpp"

namespace {

using namespace ulipc;

double time_per_iter_us(std::uint64_t iters, const std::function<void()>& op) {
  // Warm up, then measure.
  for (int i = 0; i < 1'000; ++i) op();
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) op();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(iters) /
         1e3;
}

/// The paper's concurrent-yield experiment: n processes pinned to one CPU,
/// barrier, then a tight sched_yield loop; report mean trip time.
double concurrent_yield_us(int procs, std::uint64_t iters) {
  ShmRegion region = ShmRegion::create_anonymous(4096);
  struct Shared {
    ShmBarrier barrier;
    std::atomic<std::int64_t> total_ns;
  };
  auto* shared = new (region.base()) Shared{};
  shared->barrier.init(static_cast<std::uint32_t>(procs));

  std::vector<ChildProcess> children;
  for (int p = 0; p < procs; ++p) {
    children.push_back(ChildProcess::spawn([&] {
      pin_to_cpu(0);
      shared->barrier.arrive_and_wait();
      const std::int64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < iters; ++i) sched_yield();
      shared->total_ns.fetch_add(now_ns() - t0);
      return 0;
    }));
  }
  join_all(children);
  return static_cast<double>(shared->total_ns.load()) /
         static_cast<double>(procs) / static_cast<double>(iters) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const ulipc::bench::Args args(argc, argv);
  const std::uint64_t iters = args.messages(200'000);

  std::cout << "Table 1 — measured times for primitive operations\n"
            << "(native = this host; paper = 133 MHz SGI Indy / IRIX 6.2; "
               "sim = cost model in src/sim/machine.cpp)\n\n";

  // --- native measurements ---
  ShmRegion region = ShmRegion::create_anonymous(1 << 20);
  ShmArena arena = ShmArena::format(region);
  NodePool* pool = NodePool::create(arena, 256);
  TwoLockQueue* queue = TwoLockQueue::create(arena, pool);

  const double enq_deq = time_per_iter_us(iters, [&] {
    queue->enqueue(Message(Op::kEcho, 0, 1.0));
    Message m;
    queue->dequeue(&m);
  });

  // The receive endpoints' default queue: a two-lock ring, both robust
  // locks taken as NativePlatform takes them.
  SpscRing* ring =
      SpscRing::create(arena, 64, SpscRing::Consumers::kShared);
  const double ring_enq_deq = time_per_iter_us(iters, [&] {
    {
      RobustGuard producers(ring->producer_lock());
      ring->enqueue(Message(Op::kEcho, 0, 1.0));
    }
    Message m;
    if (!ring->empty()) {
      RobustGuard consumers(ring->consumer_lock());
      ring->dequeue(&m);
    }
  });

  SysvMsgQueue msgq = SysvMsgQueue::create();
  const Message wire(Op::kEcho, 0, 1.0);
  const double snd_rcv = time_per_iter_us(iters / 10, [&] {
    msgq.send(1, &wire, sizeof(wire));
    Message m;
    msgq.receive(0, &m, sizeof(m));
  });

  FutexSemaphore fsem;
  const double futex_pv = time_per_iter_us(iters, [&] {
    fsem.post();
    fsem.wait();
  });

  SysvSemaphoreSet sems = SysvSemaphoreSet::create(1);
  const SysvSemHandle h = sems.handle(0);
  const double sysv_pv = time_per_iter_us(iters / 10, [&] {
    SysvSemaphoreSet::post(h);
    SysvSemaphoreSet::wait(h);
  });

  const double yield1 = concurrent_yield_us(1, iters / 4);
  const double yield2 = concurrent_yield_us(2, iters / 4);
  const double yield4 = concurrent_yield_us(4, iters / 8);

  const auto sgi = ulipc::sim::Machine::sgi_indy();
  auto sim_us = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };

  TextTable table({"Primitive (pair/trip)", "native us", "paper SGI us",
                   "sim model us"});
  table.add_row({"enqueue/dequeue (2-lock queue)", TextTable::num(enq_deq, 3),
                 "3",
                 TextTable::num(sim_us(sgi.costs.enqueue + sgi.costs.dequeue), 1)});
  table.add_row({"enqueue/dequeue (2-lock ring)",
                 TextTable::num(ring_enq_deq, 3), "-", "-"});
  table.add_row({"msgsnd/msgrcv", TextTable::num(snd_rcv, 3), "37",
                 TextTable::num(sim_us(sgi.costs.msgsnd + sgi.costs.msgrcv), 1)});
  table.add_row({"futex sem V/P", TextTable::num(futex_pv, 3), "-", "-"});
  table.add_row({"SysV sem V/P", TextTable::num(sysv_pv, 3),
                 "~36 (same weight as msgq ops)",
                 TextTable::num(sim_us(2 * sgi.costs.semop), 1)});
  table.add_row({"yield, 1 process", TextTable::num(yield1, 3), "16",
                 TextTable::num(sim_us(sgi.yield_cost(1)), 1)});
  table.add_row({"yield, 2 processes", TextTable::num(yield2, 3), "18",
                 TextTable::num(sim_us(sgi.yield_cost(2)), 1) + " (+switch)"});
  table.add_row({"yield, 4 processes", TextTable::num(yield4, 3), "45",
                 TextTable::num(sim_us(sgi.yield_cost(4)), 1) + " (+switch)"});
  table.render(std::cout);

  std::cout << "\nSanity checks (relative ordering the paper relies on):\n";
  int failed = 0;
  auto check = [&](const char* claim, bool ok) {
    std::cout << (ok ? "[shape OK]       " : "[shape MISMATCH] ") << claim
              << "\n";
    if (!ok) ++failed;
  };
  check("user-level enqueue/dequeue is much cheaper than msgsnd/msgrcv",
        enq_deq * 3.0 < snd_rcv);
  check("futex semaphore (no syscall uncontended) beats SysV semop",
        futex_pv < sysv_pv);
  check("concurrent yield cost grows with process count", yield1 < yield4);
  return failed;
}
