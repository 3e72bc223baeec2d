// End-to-end native experiments: real forked processes, real shared memory,
// real semaphores — the paper's rig on the host kernel. Every protocol must
// deliver every reply for every client count, with both semaphore kinds,
// pinned (uniprocessor emulation) and unpinned.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <string>

#include "common/affinity.hpp"
#include "runtime/harness.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

struct EchoParam {
  ProtocolKind protocol;
  std::uint32_t clients;
  SemKind sem;
  bool pin;
};

class NativeEchoTest : public ::testing::TestWithParam<EchoParam> {};

TEST_P(NativeEchoTest, AllRepliesVerified) {
  const EchoParam param = GetParam();
  NativeRunConfig cfg;
  cfg.protocol = param.protocol;
  cfg.sem = param.sem;
  cfg.clients = param.clients;
  cfg.messages_per_client = 2'000;
  cfg.pin_single_cpu = param.pin;
  cfg.full_sleep_ns = 1'000'000;  // keep queue-full backoff test-friendly
  const NativeRunResult r = run_native_experiment(cfg);

  EXPECT_TRUE(r.all_children_ok);
  EXPECT_EQ(r.verified_replies,
            static_cast<std::uint64_t>(cfg.clients) * cfg.messages_per_client);
  EXPECT_EQ(r.server.echo_messages,
            static_cast<std::uint64_t>(cfg.clients) * cfg.messages_per_client);
  EXPECT_GT(r.throughput_msgs_per_ms, 0.0);
}

std::vector<EchoParam> echo_matrix() {
  std::vector<EchoParam> params;
  for (const ProtocolKind proto :
       {ProtocolKind::kBss, ProtocolKind::kBsw, ProtocolKind::kBswy,
        ProtocolKind::kBsls}) {
    for (const std::uint32_t clients : {1u, 2u, 4u}) {
      params.push_back(EchoParam{proto, clients, SemKind::kFutex, false});
    }
    // Pinned single-CPU run: the uniprocessor rig.
    params.push_back(EchoParam{proto, 2, SemKind::kFutex, true});
    // The paper's semaphore flavour.
    params.push_back(EchoParam{proto, 2, SemKind::kSysv, false});
  }
  // Kernel-mediated baseline.
  params.push_back(EchoParam{ProtocolKind::kSysv, 1, SemKind::kFutex, false});
  params.push_back(EchoParam{ProtocolKind::kSysv, 3, SemKind::kFutex, false});
  params.push_back(EchoParam{ProtocolKind::kSysv, 2, SemKind::kFutex, true});
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NativeEchoTest, ::testing::ValuesIn(echo_matrix()),
    [](const ::testing::TestParamInfo<EchoParam>& pinfo) {
      return std::string(protocol_name(pinfo.param.protocol)) + "_c" +
             std::to_string(pinfo.param.clients) +
             (pinfo.param.sem == SemKind::kSysv ? "_sysv" : "_futex") +
             (pinfo.param.pin ? "_pinned" : "");
    });

TEST(NativeEcho, CountersTrackBlocksAndWakeups) {
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBsw;
  cfg.clients = 1;
  cfg.messages_per_client = 2'000;
  cfg.pin_single_cpu = true;  // serialize: BSW must actually sleep
  const NativeRunResult r = run_native_experiment(cfg);
  ASSERT_TRUE(r.all_children_ok);
  EXPECT_GT(r.client_counters_total.blocks, 0u);
  EXPECT_GT(r.server_counters.wakeups, 0u);
  EXPECT_GT(r.client_counters_total.wakeups, 0u);
}

TEST(NativeEcho, BssBusyWaitsInsteadOfBlocking) {
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBss;
  cfg.clients = 1;
  cfg.messages_per_client = 2'000;
  cfg.pin_single_cpu = true;
  const NativeRunResult r = run_native_experiment(cfg);
  ASSERT_TRUE(r.all_children_ok);
  EXPECT_EQ(r.client_counters_total.blocks, 0u);
  EXPECT_GT(r.client_counters_total.busy_waits, 0u);
}

TEST(NativeEcho, BslsRecordsSpinStatistics) {
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBsls;
  cfg.clients = 2;
  cfg.messages_per_client = 2'000;
  cfg.max_spin = 10;
  const NativeRunResult r = run_native_experiment(cfg);
  ASSERT_TRUE(r.all_children_ok);
  EXPECT_GT(r.client_counters_total.spin_entries, 0u);
  EXPECT_GE(r.client_counters_total.spin_iters, 0u);
}

/// The getrusage counter a sched_yield switch lands in. Linux counts it in
/// ru_nivcsw, not ru_nvcsw: the yielding task stays runnable, so the switch
/// is a preemption in the kernel's books, not a voluntary sleep.
long yield_switches(const CtxSwitches& c) { return c.involuntary; }

/// Some kernels (containers, sandboxes, certain CFS configurations) do not
/// reflect sched_yield-driven switches in getrusage at all, which makes the
/// assertion below vacuous. Probe the exact mechanism the test relies on:
/// two processes pinned to one CPU, one yielding in a loop against the
/// other. The probe reads the counter's delta across its own yield loop —
/// the absolute value is already nonzero from fork and start-up switches.
bool kernel_accounts_yield_switches() {
  // 0: spinner starting, 1: spinner yielding on CPU 0, 2: stop.
  ShmRegion region = ShmRegion::create_anonymous(4096);
  auto* phase = new (region.base()) std::atomic<int>(0);
  ChildProcess spinner = ChildProcess::spawn([&] {
    pin_to_cpu(0);
    phase->store(1, std::memory_order_release);
    while (phase->load(std::memory_order_acquire) != 2) sched_yield();
    return 0;
  });
  ChildProcess prober = ChildProcess::spawn([&] {
    pin_to_cpu(0);
    // Measure only once the spinner contends for the CPU.
    while (phase->load(std::memory_order_acquire) == 0) sched_yield();
    const CtxSwitches before = ctx_switches_self();
    for (int i = 0; i < 5'000; ++i) sched_yield();
    const long delta = yield_switches(ctx_switches_self() - before);
    phase->store(2, std::memory_order_release);
    return delta > 0 ? 0 : 1;  // exit code carries the probe verdict
  });
  const bool accounted = prober.join() == 0;
  phase->store(2, std::memory_order_release);
  spinner.join();
  return accounted;
}

TEST(NativeEcho, PinnedRunForcesContextSwitches) {
  // The paper confirmed the switch economics via getrusage. Use the
  // yield-based BSS, whose switches the kernel accounts (see
  // yield_switches above).
  if (!kernel_accounts_yield_switches()) {
    GTEST_SKIP() << "this environment does not account sched_yield context "
                    "switches in getrusage (5000 contended yields moved "
                    "ru_nivcsw by 0) — the assertion below cannot be "
                    "meaningful here";
  }
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBss;
  cfg.clients = 1;
  cfg.messages_per_client = 1'000;
  cfg.pin_single_cpu = true;
  const NativeRunResult r = run_native_experiment(cfg);
  ASSERT_TRUE(r.all_children_ok);
  // Serialized on one CPU, a spinning client must yield at least once per
  // round trip. client_ctx_total is already a per-run delta.
  EXPECT_GT(yield_switches(r.client_ctx_total), 500L);
}

TEST(NativeEcho, ServerWorkScalesLatency) {
  NativeRunConfig fast;
  fast.protocol = ProtocolKind::kBsls;
  fast.clients = 1;
  fast.messages_per_client = 300;
  NativeRunConfig slow = fast;
  slow.server_work_us = 300.0;
  const NativeRunResult rf = run_native_experiment(fast);
  const NativeRunResult rs = run_native_experiment(slow);
  ASSERT_TRUE(rf.all_children_ok);
  ASSERT_TRUE(rs.all_children_ok);
  EXPECT_LT(rs.throughput_msgs_per_ms, rf.throughput_msgs_per_ms);
  // One server doing 300 us of work per request cannot beat 1000/300
  // msgs/ms. The window starts after the first request's work, so it holds
  // 299 delays plus 300 round trips: the bound holds once a round trip
  // costs more than 0.3 us. A delay that returns early breaks it.
  EXPECT_LE(rs.throughput_msgs_per_ms, 1000.0 / 300.0);
}

TEST(NativeEcho, TinyQueueExercisesFlowControl) {
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBsw;
  cfg.clients = 4;
  cfg.messages_per_client = 500;
  cfg.queue_capacity = 2;            // force queue-full on the server queue
  cfg.full_sleep_ns = 200'000;       // 0.2 ms "seconds"
  const NativeRunResult r = run_native_experiment(cfg);
  ASSERT_TRUE(r.all_children_ok);
  EXPECT_EQ(r.verified_replies, 4u * 500u);
}

TEST(NativeEcho, RejectsZeroOrTooManyClients) {
  NativeRunConfig cfg;
  cfg.clients = 0;
  EXPECT_THROW(run_native_experiment(cfg), InvariantError);
  cfg.clients = kMaxClients + 1;
  EXPECT_THROW(run_native_experiment(cfg), InvariantError);
}

}  // namespace
}  // namespace ulipc
