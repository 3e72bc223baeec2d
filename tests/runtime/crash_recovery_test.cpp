// Fault-injection suite: SIGKILL channel participants at the worst points
// of the IPC protocols and verify the survivors recover — locks are stolen
// and repaired, leaked nodes swept, dead clients reaped by a thread-per-
// client server pool — all within bounded time (no test sleeps anywhere
// near the ctest timeout; liveness timeouts are tens of milliseconds).
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/bsw.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

constexpr std::int64_t kLivenessTimeoutNs = 50'000'000;  // 50 ms

/// Cross-process scratch the pool tests use to ship results and to
/// sequence the kill (the victim signals "ready to die" through it).
struct CrashOut {
  std::atomic<std::uint32_t> victim_ready{0};
  std::uint64_t echo_messages = 0;
  std::uint32_t crashed_clients = 0;
};

/// The client seats reaped on `channel`, oldest first, read back from the
/// shared recovery ring: reclaim_client() emits one kRecovery event per
/// reap, tagged with the seat.
std::vector<std::uint32_t> reaped_seats(ShmChannel& channel) {
  obs::ObsHeader& oh = channel.obs();
  const auto* ring = static_cast<const obs::TraceRing*>(
      oh.ring_blob(oh.slot_count));
  std::vector<std::uint32_t> seats;
  for (const obs::TraceRecordView& rec : ring->read_all()) {
    if (rec.event == obs::TraceEvent::kRecovery) seats.push_back(rec.slot);
  }
  return seats;
}

/// The thread-per-client server: a pool with one worker per shard, every
/// client forced onto its shard by the caller, stealing off.
ServerPoolResult run_per_client_pool(ShmChannel& channel,
                                     std::uint32_t clients) {
  ServerPoolOptions opts;
  opts.expected_clients = clients;
  opts.liveness_timeout_ns = kLivenessTimeoutNs;
  opts.steal_batch = 0;
  return run_server_pool(channel, Bsw<NativePlatform>(), opts);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  /// `shards` > 0 builds a pool channel (one worker per shard).
  void build(std::uint32_t clients, std::uint32_t shards,
             std::optional<QueueEngine> pin_engine = std::nullopt) {
    ShmChannel::Config cfg;
    cfg.max_clients = clients;
    cfg.queue_capacity = 32;
    cfg.shards = shards;
    if (pin_engine) {
      // Lock-steal tests assert two-lock-specific recovery mechanics and
      // must not follow a CI-wide ULIPC_QUEUE_ENGINE pin; the lock-free
      // engine's analogous guarantees are covered by the engine-
      // parametrized suites.
      cfg.engines.server = cfg.engines.reply = cfg.engines.shard =
          *pin_engine;
    }
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    out_region_ = ShmRegion::create_anonymous(4096);
    out_ = new (out_region_.base()) CrashOut();
  }

  /// Spins (bounded) until the victim reports it is parked and killable.
  void await_victim_ready() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (out_->victim_ready.load(std::memory_order_acquire) == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "victim never reached its kill point";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ShmRegion region_;
  ShmRegion out_region_;
  std::optional<ShmChannel> channel_;
  CrashOut* out_ = nullptr;
};

// A producer SIGKILLed between "link node" and "advance tail" leaves the
// tail lock held and tail_ lagging. The next enqueuer must steal the lock,
// repair the tail from head, and no message may be lost or duplicated.
TEST_F(CrashRecoveryTest, TailStealRepairsHalfFinishedEnqueue) {
  build(1, /*shards=*/0, QueueEngine::kTwoLock);
  MsgQueue& q = *channel_->server_endpoint().queue;
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ASSERT_TRUE(q.enqueue(Message(Op::kEcho, 0, 1.0)));
  ChildProcess victim = ChildProcess::spawn([&] {
    return q.crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 2.0)) !=
                   kNullIndex
               ? 0
               : 1;
  });
  ASSERT_EQ(victim.join(), 0);

  // The corpse still owns the tail lock.
  EXPECT_NE(q.two_lock().tail_lock().owner(), 0u);
  EXPECT_NE(q.two_lock().tail_lock().owner(), robust_self_pid());

  // This enqueue must steal, repair, and append after the half-linked node.
  ASSERT_TRUE(q.enqueue(Message(Op::kEcho, 0, 3.0)));
  EXPECT_EQ(q.two_lock().tail_lock().steal_count(), 1u);

  Message m;
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 1.0);
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 2.0);  // linking is the commit point: not lost
  ASSERT_TRUE(q.dequeue(&m));
  EXPECT_EQ(m.value, 3.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
}

// A process dying between NodePool::allocate() and the queue link leaks a
// node invisible to every queue. reclaim_client() must sweep it back.
TEST_F(CrashRecoveryTest, LeakedNodeOfDeadClientIsSwept) {
  build(1, /*shards=*/0);
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ChildProcess victim = ChildProcess::spawn([&] {
    return channel_->node_pool().allocate() != kNullIndex ? 0 : 1;
  });
  channel_->register_client_pid(
      0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);
  ASSERT_TRUE(channel_->client_crashed(0));

  const ShmChannel::ReclaimStats rs = channel_->reclaim_client(0);
  EXPECT_EQ(rs.nodes_reclaimed, 1u);
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
  EXPECT_FALSE(channel_->client_crashed(0));  // seat vacated
}

// The sweep must NOT reclaim a node whose owner is alive — a live process
// may be microseconds away from linking it into a queue.
TEST_F(CrashRecoveryTest, SweepSparesNodesOfLiveOwners) {
  build(1, /*shards=*/0);
  NodePool& pool = channel_->node_pool();
  const ShmIndex mine = pool.allocate();  // in flight, owner = this process
  ASSERT_NE(mine, kNullIndex);
  const std::uint32_t free_before = pool.free_count();

  ChildProcess victim = ChildProcess::spawn([] { return 0; });
  channel_->register_client_pid(
      0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);

  const ShmChannel::ReclaimStats rs = channel_->reclaim_client(0);
  EXPECT_EQ(rs.nodes_reclaimed, 0u);
  EXPECT_EQ(pool.free_count(), free_before);
  pool.release(mine);
}

/// Shared client-crash rig: two clients on a two-shard pool channel. Client
/// 0 is the victim on shard 0 (runs `victim_body` after connecting and is
/// then SIGKILLed); client 1 runs a full clean workload on `clean_shard`.
/// The pool runs with a 50 ms liveness timeout and must reap exactly seat 0
/// and end with every pool node recovered.
template <typename VictimBody>
void run_client_crash(ShmChannel& channel, CrashOut* out,
                      std::uint32_t clean_shard,
                      std::uint64_t clean_messages, VictimBody&& victim_body,
                      bool kill_after_ready,
                      const std::function<void()>& await_ready,
                      std::uint64_t min_echoes) {
  const std::uint32_t free0 = channel.node_pool().free_count();

  ChildProcess server = ChildProcess::spawn([&] {
    const ServerPoolResult r = run_per_client_pool(channel, 2);
    out->echo_messages = r.echo_messages;
    out->crashed_clients = r.crashed_clients;
    return r.crashed_clients == 1 ? 0 : 1;
  });

  ChildProcess victim = ChildProcess::spawn([&] {
    NativePlatform plat;
    Bsw<NativePlatform> proto;
    pool_client_connect(plat, proto, channel, 0, PlacementPolicy::kLeastLoaded,
                        /*forced_shard=*/0);
    victim_body(plat, proto, channel.shard_endpoint(0),
                channel.client_endpoint(0));
    return 0;
  });
  channel.register_client_pid(0, static_cast<std::uint32_t>(victim.pid()));

  ChildProcess clean = ChildProcess::spawn([&] {
    // Registers itself: a parent-side registration could land after this
    // client already disconnected and exited, seating a corpse.
    channel.register_client(1);
    NativePlatform plat;
    Bsw<NativePlatform> proto;
    pool_client_connect(plat, proto, channel, 1, PlacementPolicy::kLeastLoaded,
                        clean_shard);
    const std::uint64_t ok =
        pool_client_echo_loop(plat, proto, channel, 1, clean_messages);
    pool_client_disconnect(plat, proto, channel, 1);
    return ok == clean_messages ? 0 : 1;
  });

  if (kill_after_ready) {
    await_ready();
    victim.kill();
    EXPECT_LT(victim.join(), 0);  // -SIGKILL
  } else {
    EXPECT_EQ(victim.join(), 0);  // victim exits itself mid-operation
  }

  EXPECT_EQ(clean.join(), 0);
  EXPECT_EQ(server.join(), 0) << "pool failed to reap the dead client";

  EXPECT_EQ(out->crashed_clients, 1u);
  EXPECT_EQ(reaped_seats(channel), std::vector<std::uint32_t>{0u});
  EXPECT_GE(out->echo_messages, min_echoes);
  // Count free nodes only after every participant has joined: a client
  // releases its final reply node after the server has already finished,
  // so a server-side count would race with that release.
  EXPECT_EQ(channel.node_pool().free_count(), free0)
      << "pool leaked nodes across the crash";
}

// Victim killed while ASLEEP: it finishes a burst of echoes, parks in
// pause(), and is SIGKILLed. The worker serving it is blocked in a timed
// receive; it must time out, probe, and reap.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledWhileAsleep) {
  build(2, /*shards=*/2);
  run_client_crash(
      *channel_, out_, /*clean_shard=*/1, /*clean_messages=*/500,
      [&](NativePlatform& plat, Bsw<NativePlatform>& proto,
          NativeEndpoint& req, NativeEndpoint& mine) {
        client_echo_loop(plat, proto, req, mine, 0, 100);
        out_->victim_ready.store(1, std::memory_order_release);
        for (;;) pause();
      },
      /*kill_after_ready=*/true, [&] { await_victim_ready(); },
      /*min_echoes=*/600);
}

// Victim dies MID-CRITICAL-SECTION: inside an enqueue on its request
// queue, after linking the node but before advancing the tail, still
// holding the tail lock. The linked request is either served (the link is
// the commit point) or drained during the reap — never stranded — and
// recovery must steal + repair the abandoned lock. The clean client shares
// the victim's shard, so its next request enqueues behind the corpse's
// tail lock.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledMidCriticalSection) {
  build(2, /*shards=*/2, QueueEngine::kTwoLock);
  run_client_crash(
      *channel_, out_, /*clean_shard=*/0, /*clean_messages=*/500,
      [&](NativePlatform&, Bsw<NativePlatform>&, NativeEndpoint& req,
          NativeEndpoint&) {
        req.queue->crash_mid_enqueue_for_test(Message(Op::kEcho, 0, 7.0));
        // exits with the tail lock held
      },
      /*kill_after_ready=*/false, [] {},
      /*min_echoes=*/500);
  EXPECT_EQ(channel_->shard_endpoint(0).queue->two_lock().tail_lock()
                .steal_count(),
            1u)
      << "recovery should have stolen the corpse's tail lock";
}

// Victim killed MID-SEND at an arbitrary instruction: it hammers echoes in
// an unbounded loop and is SIGKILLed after ~25 ms, landing wherever the
// scheduler put it (enqueueing, waking the worker, sleeping on its reply
// semaphore, ...). Whatever the interleaving, the pool must reap it and
// the node pool must end whole.
TEST_F(CrashRecoveryTest, ServerReapsClientKilledMidSend) {
  build(2, /*shards=*/2);
  run_client_crash(
      *channel_, out_, /*clean_shard=*/1, /*clean_messages=*/500,
      [&](NativePlatform& plat, Bsw<NativePlatform>& proto,
          NativeEndpoint& req, NativeEndpoint& mine) {
        out_->victim_ready.store(1, std::memory_order_release);
        for (std::uint64_t i = 0;; ++i) {
          Message ans;
          proto.send(plat, req, mine, Message(Op::kEcho, 0, double(i)),
                     &ans);
        }
      },
      /*kill_after_ready=*/true,
      [&] {
        await_victim_ready();
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      },
      /*min_echoes=*/500);
}

// A corpse's request can still sit in its shard when a worker reaps the
// seat; whoever serves it afterwards must not strand the reply in the
// reaped seat's queue, or its node never returns to the pool.
TEST_F(CrashRecoveryTest, ReplyServedAfterReapIsDrained) {
  build(1, /*shards=*/1);
  const std::uint32_t free0 = channel_->node_pool().free_count();
  ChildProcess victim = ChildProcess::spawn([] { return 0; });
  channel_->register_client_pid(0, static_cast<std::uint32_t>(victim.pid()));
  ASSERT_EQ(victim.join(), 0);
  ASSERT_TRUE(channel_->shard_endpoint(0).queue->enqueue(
      Message(Op::kEcho, 0, 1.0)));
  ASSERT_TRUE(channel_->reclaim_client(0).reaped);

  // Nobody disconnects, so the run ends on the stop flag, raised once the
  // worker has taken the request (it serves it before it next checks).
  std::atomic<std::uint32_t> stop{0};
  std::thread stopper([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!channel_->shard_endpoint(0).queue->empty() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(1, std::memory_order_release);
  });
  ServerPoolOptions opts;
  opts.expected_clients = 1;
  opts.liveness_timeout_ns = 5'000'000;
  opts.stop_flag = &stop;
  const ServerPoolResult r =
      run_server_pool(*channel_, Bsw<NativePlatform>(), opts);
  stopper.join();

  EXPECT_EQ(r.echo_messages, 1u) << "the corpse's request is still served";
  EXPECT_TRUE(channel_->client_endpoint(0).queue->empty());
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
}

// Liveness timeouts must not misfire on healthy-but-slow clients: a client
// that stalls longer than the timeout (without dying) still completes.
TEST_F(CrashRecoveryTest, SlowLiveClientIsNotReaped) {
  build(2, /*shards=*/2);
  const std::uint32_t free0 = channel_->node_pool().free_count();

  ChildProcess server = ChildProcess::spawn([&] {
    const ServerPoolResult r = run_per_client_pool(*channel_, 2);
    out_->crashed_clients = r.crashed_clients;
    out_->echo_messages = r.echo_messages;
    return r.crashed_clients == 0 ? 0 : 1;
  });

  std::vector<ChildProcess> clients;
  for (std::uint32_t i = 0; i < 2; ++i) {
    clients.push_back(ChildProcess::spawn([&, i] {
      channel_->register_client(i);
      NativePlatform plat;
      Bsw<NativePlatform> proto;
      pool_client_connect(plat, proto, *channel_, i,
                          PlacementPolicy::kLeastLoaded, /*forced_shard=*/i);
      pool_client_echo_loop(plat, proto, *channel_, i, 50);
      // Stall for 4x the pool's liveness timeout, then resume: the workers
      // probe kill(pid, 0), find us alive, and keep waiting.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const std::uint64_t ok =
          pool_client_echo_loop(plat, proto, *channel_, i, 50);
      pool_client_disconnect(plat, proto, *channel_, i);
      return ok == 50 ? 0 : 1;
    }));
  }

  for (auto& c : clients) EXPECT_EQ(c.join(), 0);
  EXPECT_EQ(server.join(), 0) << "pool reaped a live client";
  EXPECT_EQ(out_->crashed_clients, 0u);
  EXPECT_TRUE(reaped_seats(*channel_).empty());
  EXPECT_EQ(out_->echo_messages, 200u);
  // Counted after all joins — a server-side count would race with the
  // clients releasing their final disconnect-reply nodes.
  EXPECT_EQ(channel_->node_pool().free_count(), free0);
}

}  // namespace
}  // namespace ulipc
