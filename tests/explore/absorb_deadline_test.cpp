// A producer SIGKILLed between its tas(awake) and its V must not hang a
// deadline-bound consumer. Both consumer paths that absorb a producer's
// token — the C.3 recheck hit and the expiry recheck after a timed-out
// sleep — find the producer's message, then find the awake flag the
// producer's tas set, and take the P for the V that producer committed
// to. The corpse never posts it. An untimed P then blocks forever (the
// resilient pool client hung this way); the absorb is bounded by the
// consumer's deadline instead, and the message is still delivered.
//
// The producer is a real forked process killed at kProtPreWake, forked
// from a thread hook at the consumer's marker that opens each window
// (kProtCleared: the flag is clear and C.3 has not run; kProtTimedOut: the
// sleep expired and the expiry recheck has not run). The consumer runs in
// a child of its own, so a hang fails the test at a bound instead of
// stalling the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <thread>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/detail.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::Point;
using explore::run_victim_to_crash;

constexpr std::int64_t kBudgetNs = 200'000'000;  // the consumer's deadline
constexpr auto kHangBound = std::chrono::seconds(10);

/// What the consumer child reports back through shared memory.
struct AbsorbOut {
  std::atomic<std::uint32_t> done{0};
  std::uint32_t producer_died_at_marker = 0;
  Status status = Status::kTimeout;
  double value = 0.0;
  std::uint64_t absorbs = 0;
  std::int64_t overrun_ns = 0;  // return time minus deadline
};

/// Forks the doomed producer the first time the consumer reaches
/// `trigger`: it enqueues, wins the tas against the cleared flag, and dies
/// before its V.
class KillProducerAt : public explore::ThreadHook {
 public:
  KillProducerAt(Point trigger, NativeEndpoint& ep, AbsorbOut* out)
      : trigger_(trigger), ep_(ep), out_(out) {}

  void on_point(Point p) override {
    if (fired_ || p != trigger_) return;
    fired_ = true;
    ChildProcess producer = run_victim_to_crash(Point::kProtPreWake, 1, [&] {
      explore::set_thread_hook(nullptr);
      NativePlatform plat;
      detail::enqueue_and_wake(plat, ep_, Message(Op::kEcho, 0, 42.0));
    });
    out_->producer_died_at_marker = died_at_marker(producer.join()) ? 1 : 0;
  }
  void on_block(Point) override {}
  void on_resume() override {}

 private:
  Point trigger_;
  NativeEndpoint& ep_;
  AbsorbOut* out_;
  bool fired_ = false;
};

class AbsorbDeadlineTest : public ::testing::TestWithParam<Point> {
 protected:
  AbsorbDeadlineTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 1;
    cfg.queue_capacity = 16;
    cfg.payload_max_bytes = 0;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    out_region_ = ShmRegion::create_anonymous(4096);
    out_ = new (out_region_.base()) AbsorbOut();
  }

  ShmRegion region_;
  ShmRegion out_region_;
  std::optional<ShmChannel> channel_;
  AbsorbOut* out_ = nullptr;
};

TEST_P(AbsorbDeadlineTest, ProducerKilledBetweenTasAndVDoesNotHangConsumer) {
  NativeEndpoint& ep = channel_->server_endpoint();
  ChildProcess consumer = ChildProcess::spawn([&] {
    KillProducerAt hook(GetParam(), ep, out_);
    explore::set_thread_hook(&hook);
    NativePlatform plat;
    Message m;
    const std::int64_t deadline = plat.time_ns() + kBudgetNs;
    out_->status = detail::dequeue_or_sleep_until(
        plat, ep, &m, /*pre_busy_wait=*/false, deadline);
    out_->overrun_ns = plat.time_ns() - deadline;
    explore::set_thread_hook(nullptr);
    out_->value = m.value;
    out_->absorbs = plat.counters().sem_absorbs;
    out_->done.store(1, std::memory_order_release);
    return 0;
  });

  const auto bound = std::chrono::steady_clock::now() + kHangBound;
  while (out_->done.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned = out_->done.load(std::memory_order_acquire) != 0;
  if (!returned) consumer.kill();
  EXPECT_EQ(consumer.join(), returned ? 0 : -SIGKILL);
  ASSERT_EQ(out_->producer_died_at_marker, 1u)
      << "the producer must die between its tas and its V";
  ASSERT_TRUE(returned) << "the consumer hung in the absorb, "
                        << std::chrono::duration_cast<std::chrono::seconds>(
                               kHangBound)
                               .count()
                        << " s past its deadline";

  EXPECT_EQ(out_->status, Status::kOk) << "the corpse's message is delivered";
  EXPECT_DOUBLE_EQ(out_->value, 42.0);
  EXPECT_EQ(out_->absorbs, 1u) << "the consumer tried to absorb the token";
  EXPECT_LT(out_->overrun_ns, 50'000'000)
      << "the absorb overran the deadline by " << out_->overrun_ns << " ns";
  // The consumer's tas left the flag set, no token is banked and the queue
  // is empty: the endpoint is at rest.
  EXPECT_TRUE(ep.awake.is_set());
  const explore::InvariantReport rep = explore::check_invariants(
      channel_->node_pool(), channel_->all_queues(), nullptr, {&ep});
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AbsorbDeadlineTest,
    ::testing::Values(Point::kProtCleared, Point::kProtTimedOut),
    [](const ::testing::TestParamInfo<Point>& i) {
      return i.param == Point::kProtCleared ? std::string("RecheckHit")
                                            : std::string("ExpiryRecheck");
    });

}  // namespace
}  // namespace ulipc
