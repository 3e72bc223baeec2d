// Crash-point mode for the payload plane: fork a victim, SIGKILL it at an
// armed marker inside loan/publish/release, then prove the sweep returns
// the plane to exact free-count conservation and the free-XOR-loaned
// invariant holds. Each test targets one window of the loan lifecycle:
//   * a loan held but never published (dies right after loan()),
//   * a published payload whose message was never sent,
//   * a published payload whose message IS pending in a queue (the sweep
//     must NOT reclaim it until the message is consumed),
//   * mid-release before the free-list commit (slot still loaned),
//   * mid-release after the commit but before the owner stamp is cleared
//     (slot free; the stale stamp is repaired, nothing reclaimed).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>

#include "explore/crash_point.hpp"
#include "explore/hooks.hpp"
#include "explore/invariants.hpp"
#include "protocols/channel.hpp"
#include "protocols/detail.hpp"
#include "queue/payload_pool.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

using explore::died_at_marker;
using explore::Point;
using explore::run_victim_to_crash;

class PayloadCrashTest : public ::testing::Test {
 protected:
  PayloadCrashTest() {
    ShmChannel::Config cfg;
    cfg.max_clients = 4;
    cfg.queue_capacity = 16;  // payload plane is on by default (4 KiB max)
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    plane_ = channel_->payload_plane();
    pfree0_ = plane_->free_count();
    nfree0_ = channel_->node_pool().free_count();
  }

  NativeEndpoint& ep() { return channel_->server_endpoint(); }

  explore::InvariantReport invariants() {
    return explore::check_invariants(channel_->node_pool(),
                                     channel_->all_queues(), plane_, {&ep()});
  }

  /// The channel's sweep: node queues and rings, receive and reply.
  RecoveryStats sweep() { return channel_->sweep_leaked(); }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
  PayloadPool* plane_ = nullptr;
  std::uint32_t pfree0_ = 0;
  std::uint32_t nfree0_ = 0;
};

TEST_F(PayloadCrashTest, DeathHoldingUnpublishedLoanIsSweptBack) {
  // SIGKILL immediately after loan(): the slot is stamped with the corpse's
  // pid and referenced by nothing. The checker must SEE the dead holder,
  // and the sweep must reclaim exactly that one slot.
  ChildProcess victim = run_victim_to_crash(Point::kPayloadLoaned, 1, [&] {
    (void)plane_->loan(100);
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  EXPECT_EQ(plane_->loans_outstanding(), 1u);
  EXPECT_FALSE(invariants().ok())
      << "a loan held by a corpse must read as a violation";
  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(PayloadCrashTest, DeathAfterPublishWithoutSendIsSweptBack) {
  // The victim publishes but dies before the message carrying the token is
  // ever enqueued: no queue references the slot, its owner is dead, so the
  // sweep reclaims it like any other orphaned loan.
  ChildProcess victim =
      run_victim_to_crash(Point::kPayloadPublished, 1, [&] {
        const std::uint64_t token = plane_->loan(256);
        ASSERT_NE(token, PayloadPool::kNoPayload);
        std::memset(plane_->data(token), 'x', 256);
        plane_->publish(token, 256);
      });
  EXPECT_TRUE(died_at_marker(victim.join()));

  EXPECT_FALSE(invariants().ok());
  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(PayloadCrashTest, PendingMessagePinsTheDeadSendersPayload) {
  // The victim publishes AND enqueues the message, then dies before its
  // wake-up V (kProtPreWake). The message is still pending: the sweep must
  // keep the slot alive for the eventual consumer — a dead client's
  // in-flight request is served, not dropped. Only after the message is
  // consumed does the slot become reclaimable.
  ep().awake.clear();  // so the enqueue wins the tas and reaches the V
  ChildProcess victim = run_victim_to_crash(Point::kProtPreWake, 1, [&] {
    NativePlatform plat;
    const std::uint64_t token = plane_->loan(64);
    ASSERT_NE(token, PayloadPool::kNoPayload);
    plane_->write(token, "pinned-by-pending-message");
    detail::enqueue_and_wake(plat, ep(), Message(Op::kEcho, 0, 7.0, token));
  });
  EXPECT_TRUE(died_at_marker(victim.join()));

  RecoveryStats stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 0u)
      << "a pending message must pin its payload slot";
  EXPECT_EQ(plane_->loans_outstanding(), 1u);

  Message m;
  NativePlatform consumer;
  ASSERT_TRUE(consumer.dequeue(ep(), &m));
  EXPECT_DOUBLE_EQ(m.value, 7.0);
  EXPECT_EQ(plane_->read(m.ext_offset), "pinned-by-pending-message");

  // Delivered now: the stale copies left in the queue's dummy node (or the
  // ring's consumed slot) must not keep pinning it, and the (dead) holder
  // no longer protects it.
  stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_EQ(channel_->node_pool().free_count(), nfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(PayloadCrashTest, DeathMidReleaseBeforeCommitIsSweptBack) {
  // SIGKILL inside release() with the class lock held, BEFORE the
  // free-list commit: the slot is still loaned to the corpse. The sweep
  // must steal the orphaned class lock and reclaim the slot.
  ChildProcess victim =
      run_victim_to_crash(Point::kPayloadReleasing, 1, [&] {
        const std::uint64_t token = plane_->loan(100);
        ASSERT_NE(token, PayloadPool::kNoPayload);
        plane_->release(token);
      });
  EXPECT_TRUE(died_at_marker(victim.join()));

  EXPECT_FALSE(invariants().ok())
      << "a half-released (pre-commit) slot must read as dead-held";
  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 1u);
  EXPECT_EQ(plane_->free_count(), pfree0_);
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
}

TEST_F(PayloadCrashTest, DeathMidReleaseAfterCommitRepairsWithoutReclaim) {
  // SIGKILL after the free-list link (the commit point) but before the
  // owner stamp is cleared and free_count bumped: the slot IS free. The
  // repair path (mark_free) must clear the stale stamp and reseat the
  // class free count — reclaiming it as a leak would double-free.
  ChildProcess victim =
      run_victim_to_crash(Point::kPayloadReleaseLinked, 1, [&] {
        const std::uint64_t token = plane_->loan(100);
        ASSERT_NE(token, PayloadPool::kNoPayload);
        plane_->release(token);
      });
  EXPECT_TRUE(died_at_marker(victim.join()));

  const RecoveryStats stats = sweep();
  EXPECT_EQ(stats.payloads_reclaimed, 0u)
      << "a committed release is complete; reclaiming it would double-free";
  EXPECT_EQ(plane_->free_count(), pfree0_)
      << "mark_free must reseat the interrupted class free count";
  EXPECT_TRUE(invariants().ok()) << invariants().to_string();
  EXPECT_EQ(plane_->loans_outstanding(), 0u);
}

}  // namespace
}  // namespace ulipc
