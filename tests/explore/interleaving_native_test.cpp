// The paper's Figure-4 interleavings pinned as replayable schedules on the
// NATIVE protocol stack (real MsgQueue, real futex semaphore), TEST_P over
// both queue engines: the interleavings live in the protocol layer (C.1-C.5
// vs P.1-P.3), so each engine must produce the same pinned, replayable
// traces through its own enqueue/dequeue markers.
//
// Each test finds its target interleaving with a deterministic switch-point
// scan: schedules of the form 0^L 1^K run the consumer (tid 0, lowest
// index) until its L-th decision, then hand the floor to the producer(s).
// Some L lands the hand-off exactly at the consumer's C.3 recheck-empty
// marker — the window both paper interleavings live in. The matching
// schedule is then replayed twice and the marker traces must be identical
// (the replayability acceptance criterion, on the native stack).
//
// Scheduling note: these scenarios keep the floor hand-offs at points where
// no thread is inside a kernel wait (wake-up tokens are banked while the
// consumer is parked at a marker, not OS-blocked), so the recorded decision
// widths cannot race a kernel wake-up and replay is exact.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/controller.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/channel.hpp"
#include "protocols/detail.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::Controller;
using explore::Options;
using explore::Point;
using explore::Policy;
using explore::TraceEntry;

constexpr std::uint32_t kConsumer = 0;  // spawn order fixes the tids
constexpr std::uint32_t kProducerA = 1;
constexpr std::uint32_t kProducerB = 2;

std::ptrdiff_t find_entry(const std::vector<TraceEntry>& trace,
                          std::uint32_t tid, Point p) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].tid == tid && trace[i].point == p) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::size_t count_point(const std::vector<TraceEntry>& trace, Point p) {
  std::size_t n = 0;
  for (const TraceEntry& e : trace) n += e.point == p;
  return n;
}

/// 0^L 1^24: run the lowest-tid runnable thread for the first `zeros`
/// decisions, then prefer the next one (replay indices clamp to the width,
/// and fall back to 0 once exhausted).
std::vector<std::uint32_t> switch_schedule(std::size_t zeros) {
  std::vector<std::uint32_t> s(zeros, 0);
  s.insert(s.end(), 24, 1);
  return s;
}

Options replay_options(std::vector<std::uint32_t> schedule) {
  Options o;
  o.policy = Policy::kReplay;
  o.replay = std::move(schedule);
  o.step_timeout = std::chrono::milliseconds(2000);
  return o;
}

// ---------------------------------------------------------- Interleaving 1

/// Producer slips its whole enqueue+wake between the consumer's C.3
/// recheck (empty) and its C.4 sleep: the V arrives before the P, the
/// token is banked, and the consumer's sem P must return immediately.
struct Interleaving1Run {
  bool ran_ok = false;
  bool matched = false;
  std::string trace;
  std::string schedule;
  double value = 0.0;
  std::uint64_t producer_wakeups = 0;
  std::uint64_t consumer_blocks = 0;
  std::uint64_t consumer_absorbs = 0;
  std::uint32_t sem_residue = 0;
  bool awake_set = false;
  bool invariants_ok = false;
  std::string invariants;
};

Interleaving1Run run_interleaving1(const std::vector<std::uint32_t>& sched,
                                   QueueEngine engine) {
  ShmChannel::Config cfg;
  cfg.max_clients = 4;
  cfg.queue_capacity = 16;
  cfg.engines.server = cfg.engines.shard = engine;
  ShmRegion region = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  NativeEndpoint& ep = channel.server_endpoint();

  NativePlatform cons_plat, prod_plat;
  Message m{};
  Interleaving1Run r;
  {
    Controller c(replay_options(sched));
    c.spawn("consumer", [&] {
      detail::dequeue_or_sleep(cons_plat, ep, &m, /*pre_busy_wait=*/false);
    });
    c.spawn("producer", [&] {
      detail::enqueue_and_wake(prod_plat, ep, Message(Op::kEcho, 0, 42.0));
    });
    r.ran_ok = c.run();
    r.trace = c.trace_string();
    r.schedule = c.schedule_string();

    const auto& t = c.trace();
    const std::ptrdiff_t recheck =
        find_entry(t, kConsumer, Point::kProtRecheckEmpty);
    const std::ptrdiff_t wake = find_entry(t, kProducerA, Point::kProtPreWake);
    const std::ptrdiff_t sleep = find_entry(t, kConsumer, Point::kProtSleep);
    r.matched = recheck >= 0 && wake >= 0 && sleep >= 0 && recheck < wake &&
                wake < sleep;
  }
  r.value = m.value;
  r.producer_wakeups = prod_plat.counters().wakeups;
  r.consumer_blocks = cons_plat.counters().blocks;
  r.consumer_absorbs = cons_plat.counters().sem_absorbs;
  r.sem_residue = ep.fsem.value();
  r.awake_set = ep.awake.is_set();
  const explore::InvariantReport rep = explore::check_invariants(
      channel.node_pool(), channel.all_queues(), nullptr, {&ep});
  r.invariants_ok = rep.ok();
  r.invariants = rep.to_string();
  return r;
}

class InterleavingNative : public ::testing::TestWithParam<QueueEngine> {};

TEST_P(InterleavingNative, PaperInterleaving1PinnedAndReplayable) {
  std::optional<Interleaving1Run> found;
  for (std::size_t zeros = 1; zeros <= 20 && !found; ++zeros) {
    Interleaving1Run r = run_interleaving1(switch_schedule(zeros), GetParam());
    if (r.ran_ok && r.matched) found = std::move(r);
  }
  ASSERT_TRUE(found.has_value())
      << "switch-point scan never produced Interleaving 1";

  // Pin it: the recorded schedule must reproduce the identical marker
  // trace, twice.
  const std::vector<std::uint32_t> pinned =
      explore::parse_schedule(found->schedule);
  const Interleaving1Run first = run_interleaving1(pinned, GetParam());
  const Interleaving1Run second = run_interleaving1(pinned, GetParam());
  EXPECT_TRUE(first.ran_ok && second.ran_ok);
  EXPECT_TRUE(first.matched) << "pinned schedule lost the interleaving\n"
                             << first.trace;
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must produce the identical marker trace";

  // Protocol outcome: the banked V wakes the consumer's P immediately, the
  // message is delivered, and nothing is left over.
  EXPECT_DOUBLE_EQ(first.value, 42.0);
  EXPECT_EQ(first.producer_wakeups, 1u) << "producer saw awake==0, must V";
  EXPECT_EQ(first.consumer_blocks, 1u);
  EXPECT_EQ(first.consumer_absorbs, 0u)
      << "the pending token is consumed by the P itself, not absorbed";
  EXPECT_EQ(first.sem_residue, 0u) << "Interleaving 1 must not bank a token";
  EXPECT_TRUE(first.awake_set) << "C.5 must restore the flag";
  EXPECT_TRUE(first.invariants_ok) << first.invariants;
}

// ---------------------------------------------------------- Interleaving 2

/// Two producers race the consumer's sleep window: only the first tas sees
/// awake==0, so exactly one V is issued for the two messages.
struct Interleaving2Run {
  bool ran_ok = false;
  bool matched = false;
  std::string trace;
  std::string schedule;
  double first_value = 0.0;
  double second_value = 0.0;
  std::uint64_t total_wakeups = 0;
  std::uint64_t consumer_blocks = 0;
  std::uint32_t sem_residue = 0;
  bool invariants_ok = false;
  std::string invariants;
};

Interleaving2Run run_interleaving2(const std::vector<std::uint32_t>& sched,
                                   QueueEngine engine) {
  ShmChannel::Config cfg;
  cfg.max_clients = 4;
  cfg.queue_capacity = 16;
  cfg.engines.server = cfg.engines.shard = engine;
  ShmRegion region = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  NativeEndpoint& ep = channel.server_endpoint();

  NativePlatform cons_plat, pa_plat, pb_plat;
  Message m1{}, m2{};
  Interleaving2Run r;
  {
    Controller c(replay_options(sched));
    c.spawn("consumer", [&] {
      detail::dequeue_or_sleep(cons_plat, ep, &m1, false);
      detail::dequeue_or_sleep(cons_plat, ep, &m2, false);
    });
    c.spawn("prod-a", [&] {
      detail::enqueue_and_wake(pa_plat, ep, Message(Op::kEcho, 0, 1.0));
    });
    c.spawn("prod-b", [&] {
      detail::enqueue_and_wake(pb_plat, ep, Message(Op::kEcho, 0, 2.0));
    });
    r.ran_ok = c.run();
    r.trace = c.trace_string();
    r.schedule = c.schedule_string();

    const auto& t = c.trace();
    const std::ptrdiff_t enq_a = find_entry(t, kProducerA, Point::kProtEnqueued);
    const std::ptrdiff_t enq_b = find_entry(t, kProducerB, Point::kProtEnqueued);
    const std::ptrdiff_t woke = find_entry(t, kConsumer, Point::kProtWoke);
    r.matched = enq_a >= 0 && enq_b >= 0 && woke >= 0 && enq_a < woke &&
                enq_b < woke && count_point(t, Point::kProtPreWake) == 1;
  }
  r.first_value = m1.value;
  r.second_value = m2.value;
  r.total_wakeups = pa_plat.counters().wakeups + pb_plat.counters().wakeups;
  r.consumer_blocks = cons_plat.counters().blocks;
  r.sem_residue = ep.fsem.value();
  const explore::InvariantReport rep = explore::check_invariants(
      channel.node_pool(), channel.all_queues(), nullptr, {&ep});
  r.invariants_ok = rep.ok();
  r.invariants = rep.to_string();
  return r;
}

TEST_P(InterleavingNative, PaperInterleaving2SingleWakeupPinned) {
  std::optional<Interleaving2Run> found;
  for (std::size_t zeros = 1; zeros <= 20 && !found; ++zeros) {
    Interleaving2Run r = run_interleaving2(switch_schedule(zeros), GetParam());
    if (r.ran_ok && r.matched) found = std::move(r);
  }
  ASSERT_TRUE(found.has_value())
      << "switch-point scan never produced Interleaving 2";

  const std::vector<std::uint32_t> pinned =
      explore::parse_schedule(found->schedule);
  const Interleaving2Run first = run_interleaving2(pinned, GetParam());
  const Interleaving2Run second = run_interleaving2(pinned, GetParam());
  EXPECT_TRUE(first.ran_ok && second.ran_ok);
  EXPECT_TRUE(first.matched) << "pinned schedule lost the interleaving\n"
                             << first.trace;
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must produce the identical marker trace";

  // Exactly one V for two enqueues: the second producer's tas found the
  // flag already set. Both messages arrive, FIFO, with no residue.
  EXPECT_EQ(first.total_wakeups, 1u);
  EXPECT_DOUBLE_EQ(first.first_value, 1.0);
  EXPECT_DOUBLE_EQ(first.second_value, 2.0);
  EXPECT_EQ(first.consumer_blocks, 1u);
  EXPECT_EQ(first.sem_residue, 0u)
      << "coalesced wake-up must not accumulate counts";
  EXPECT_TRUE(first.invariants_ok) << first.invariants;
}

INSTANTIATE_TEST_SUITE_P(Engines, InterleavingNative,
                         ::testing::Values(QueueEngine::kTwoLock,
                                           QueueEngine::kLockFree),
                         [](const ::testing::TestParamInfo<QueueEngine>& i) {
                           return i.param == QueueEngine::kTwoLock
                                      ? "TwoLock"
                                      : "LockFree";
                         });

}  // namespace
}  // namespace ulipc
