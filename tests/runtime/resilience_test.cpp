// ResilientPoolClient: the bounded-time client envelope that the scenario
// engine drives. Each test isolates one leg of the envelope —
//   * admission shedding (kOverloaded when the target shard is over the
//     watermark, request never enqueued),
//   * deadline + bounded retry (kTimedOut after exactly max_retries
//     re-sends when nothing ever answers),
//   * stale-reply dedup (a reply carrying another tag is dropped, never
//     returned as this request's answer),
//   * backoff shape (exponential growth, cap, jitter window),
//   * and the happy path against a real forked pool worker.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "protocols/bsw.hpp"
#include "runtime/resilience.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void build(std::uint32_t shards, std::uint32_t clients,
             std::uint32_t capacity = 64) {
    ShmChannel::Config cfg;
    cfg.max_clients = clients;
    cfg.queue_capacity = capacity;
    cfg.shards = shards;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
  }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
};

TEST_F(ResilienceTest, ShedsAtAdmissionWhenShardExceedsWatermark) {
  build(1, 1);
  NativePlatform plat;
  ResilienceConfig cfg;
  cfg.shed_watermark = 2;
  cfg.request_deadline_ns = 5'000'000;
  cfg.max_retries = 0;
  ResilientPoolClient client(*channel_, 0, cfg);

  // Pile three requests into the only shard: depth 3 > watermark 2.
  NativeEndpoint& shard = channel_->shard_endpoint(0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(plat.enqueue(shard, Message(Op::kEcho, 0, double(i))));
  }
  const std::uint64_t queued = shard.depth();

  Message ans;
  EXPECT_EQ(client.request(plat, Op::kEcho, 1.0, &ans),
            RequestOutcome::kOverloaded);
  EXPECT_EQ(client.stats().sheds, 1u);
  EXPECT_EQ(plat.counters().sheds, 1u);
  EXPECT_EQ(shard.depth(), queued)
      << "a shed request must never reach the shard queue";

  // Drain below the watermark: the same client is admitted again (and then
  // times out, because nobody serves — admission and service are separate).
  Message m;
  while (plat.dequeue(shard, &m)) {
  }
  EXPECT_EQ(client.request(plat, Op::kEcho, 1.0, &ans),
            RequestOutcome::kTimedOut);
  EXPECT_EQ(client.stats().sheds, 1u) << "no further shed after the drain";
}

TEST_F(ResilienceTest, TimesOutAfterBoundedRetriesWhenNobodyServes) {
  build(1, 1);
  NativePlatform plat;
  ResilienceConfig cfg;
  cfg.request_deadline_ns = 2'000'000;  // 2 ms per attempt
  cfg.max_retries = 3;
  cfg.backoff_base_ns = 50'000;
  cfg.backoff_cap_ns = 200'000;
  ResilientPoolClient client(*channel_, 0, cfg);

  Message ans;
  EXPECT_EQ(client.request(plat, Op::kEcho, 7.0, &ans),
            RequestOutcome::kTimedOut);
  EXPECT_EQ(client.stats().retries, 3u) << "one initial attempt + 3 retries";
  EXPECT_EQ(plat.counters().retries, 3u);
  EXPECT_EQ(client.stats().requests, 1u) << "one logical request";
  // All four attempts enqueued the same tagged message.
  EXPECT_EQ(channel_->shard_endpoint(0).depth(), 4u);
}

TEST_F(ResilienceTest, StaleReplyIsDroppedNotReturned) {
  build(1, 1);
  NativePlatform plat;
  ResilienceConfig cfg;
  cfg.request_deadline_ns = 5'000'000;
  cfg.max_retries = 0;
  ResilientPoolClient client(*channel_, 0, cfg);

  // A reply from a superseded attempt is already waiting in the client's
  // reply ring: right channel, wrong tag. The first real request uses tag 1, so
  // tag 999 can never match.
  NativeEndpoint& mine = channel_->client_endpoint(0);
  ASSERT_TRUE(mine.ring->enqueue(Message(Op::kEcho, 0, 42.0, 999)));

  Message ans;
  ans.value = -1.0;
  EXPECT_EQ(client.request(plat, Op::kEcho, 7.0, &ans),
            RequestOutcome::kTimedOut)
      << "the stale reply must not satisfy the request";
  EXPECT_EQ(client.stats().stale_dropped, 1u);
  EXPECT_TRUE(mine.ring->empty()) << "the stale reply was consumed";
}

TEST_F(ResilienceTest, BackoffGrowsExponentiallyCapsAndJittersDown) {
  build(1, 1);
  ResilienceConfig cfg;
  cfg.backoff_base_ns = 100'000;
  cfg.backoff_cap_ns = 1'000'000;
  cfg.backoff_jitter = 0.5;
  ResilientPoolClient client(*channel_, 0, cfg);

  for (int draw = 0; draw < 64; ++draw) {
    // attempt 1: [base/2, base].
    const std::int64_t d1 = client.backoff_ns(1);
    EXPECT_GE(d1, 50'000);
    EXPECT_LE(d1, 100'000);
    // attempt 3: nominal 400us, jittered down to at most half.
    const std::int64_t d3 = client.backoff_ns(3);
    EXPECT_GE(d3, 200'000);
    EXPECT_LE(d3, 400'000);
    // attempt 10: nominal 51.2ms, capped at 1ms before jitter.
    const std::int64_t d10 = client.backoff_ns(10);
    EXPECT_GE(d10, 500'000);
    EXPECT_LE(d10, 1'000'000);
  }
}

TEST_F(ResilienceTest, RoundTripsAgainstARealWorker) {
  build(1, 1);
  ChildProcess worker = ChildProcess::spawn([&] {
    ServerPoolOptions o;
    o.expected_clients = 1;
    o.liveness_timeout_ns = 20'000'000;
    const PoolWorkerResult r =
        run_pool_worker(*channel_, Bsw<NativePlatform>(), 0, o);
    return r.server.echo_messages >= 50 ? 0 : 1;
  });
  channel_->register_worker_pid(0, static_cast<std::uint32_t>(worker.pid()));

  NativePlatform plat;
  ResilientPoolClient client(*channel_, 0);
  ASSERT_EQ(client.connect(plat, PlacementPolicy::kLeastLoaded),
            RequestOutcome::kOk);
  for (int i = 0; i < 50; ++i) {
    Message ans;
    ASSERT_EQ(client.request(plat, Op::kEcho, double(i), &ans),
              RequestOutcome::kOk);
    EXPECT_DOUBLE_EQ(ans.value, double(i));
    EXPECT_EQ(ans.channel, 0u);
  }
  EXPECT_EQ(client.disconnect(plat), RequestOutcome::kOk);
  EXPECT_EQ(worker.join(), 0);
  EXPECT_EQ(client.stats().requests, 52u);  // connect + 50 echoes + disconnect
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().stale_dropped, 0u);
}

}  // namespace
}  // namespace ulipc
