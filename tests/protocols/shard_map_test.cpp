// Unit tests for the client-to-shard placement table (ShardMap): policy
// behavior, assigned-count maintenance, retire/re-place semantics. Pure
// in-memory — the map normally lives in channel shm, but nothing in it
// cares where it sits.
#include "protocols/shard_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace ulipc {
namespace {

using Map = ShardMap<8, 16>;

TEST(ShardMapTest, InitActivatesExactlyNShards) {
  Map m;
  m.init(3);
  EXPECT_EQ(m.count(), 3u);
  for (std::uint32_t s = 0; s < 3; ++s) EXPECT_EQ(m.state(s), Map::kActive);
  for (std::uint32_t s = 3; s < 8; ++s) EXPECT_EQ(m.state(s), Map::kVacant);
  for (std::uint32_t c = 0; c < 16; ++c) EXPECT_EQ(m.assignment(c), kNoShard);
}

TEST(ShardMapTest, LeastLoadedSpreadsClientsEvenly) {
  Map m;
  m.init(3);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const std::uint32_t s = m.place(c, PlacementPolicy::kLeastLoaded);
    ASSERT_NE(s, kNoShard);
    EXPECT_EQ(m.assignment(c), s);
  }
  // 8 clients over 3 shards: loads must be {3, 3, 2} in some order.
  std::vector<std::uint32_t> loads;
  std::uint32_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    const std::uint32_t a = m.shards[s].assigned.load();
    loads.push_back(a);
    total += a;
  }
  EXPECT_EQ(total, 8u);
  for (std::uint32_t a : loads) {
    EXPECT_GE(a, 2u);
    EXPECT_LE(a, 3u);
  }
}

// Clients connecting at the same instant must still spread evenly: a
// place() that lost a race for the minimum re-picks instead of piling onto
// the shard it first saw as least loaded.
TEST(ShardMapTest, ConcurrentLeastLoadedPlacementStaysBalanced) {
  constexpr std::uint32_t kShards = 2;
  constexpr std::uint32_t kClients = 4;
  for (int round = 0; round < 200; ++round) {
    Map m;
    m.init(kShards);
    std::atomic<std::uint32_t> ready{0};
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kClients) std::this_thread::yield();
        (void)m.place(c, PlacementPolicy::kLeastLoaded);
      });
    }
    for (auto& t : threads) t.join();
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(m.shards[s].assigned.load(), kClients / kShards)
          << "round " << round << ", shard " << s;
    }
  }
}

TEST(ShardMapTest, RendezvousIsDeterministicAndUsesAllShardsEventually) {
  Map m;
  m.init(4);
  std::set<std::uint32_t> used;
  for (std::uint32_t c = 0; c < 16; ++c) {
    const std::uint32_t first = m.pick(c, PlacementPolicy::kRendezvous);
    const std::uint32_t second = m.pick(c, PlacementPolicy::kRendezvous);
    ASSERT_NE(first, kNoShard);
    EXPECT_EQ(first, second);  // pure function of (client, active set)
    used.insert(first);
  }
  // 16 clients over 4 shards under a decent hash: expect every shard hit.
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardMapTest, AssignMaintainsCountsAndEpoch) {
  Map m;
  m.init(2);
  const std::uint32_t e0 = m.epoch.load();
  m.assign(0, 0);
  m.assign(1, 0);
  EXPECT_EQ(m.shards[0].assigned.load(), 2u);
  m.assign(1, 1);  // move: old shard decremented, new incremented
  EXPECT_EQ(m.shards[0].assigned.load(), 1u);
  EXPECT_EQ(m.shards[1].assigned.load(), 1u);
  m.unplace(0);
  EXPECT_EQ(m.shards[0].assigned.load(), 0u);
  EXPECT_EQ(m.assignment(0), kNoShard);
  EXPECT_GT(m.epoch.load(), e0);
}

TEST(ShardMapTest, RetireIsCasOnActiveOnly) {
  Map m;
  m.init(2);
  EXPECT_TRUE(m.retire(1));
  EXPECT_EQ(m.state(1), Map::kRetired);
  EXPECT_FALSE(m.retire(1));  // already retired
  // pick() must never offer a retired shard.
  for (std::uint32_t c = 0; c < 16; ++c) {
    EXPECT_EQ(m.pick(c, PlacementPolicy::kRendezvous), 0u);
    EXPECT_EQ(m.pick(c, PlacementPolicy::kLeastLoaded), 0u);
  }
}

TEST(ShardMapTest, ReplaceMovesOnlyDeadShardsClients) {
  // The HRW property: retiring one shard re-places ONLY that shard's
  // clients; everyone else's rendezvous winner is unchanged.
  Map m;
  m.init(4);
  std::vector<std::uint32_t> before(16);
  for (std::uint32_t c = 0; c < 16; ++c) {
    before[c] = m.place(c, PlacementPolicy::kRendezvous);
  }
  const std::uint32_t dead = before[0];  // kill a shard that has clients
  std::uint32_t dead_clients = 0;
  for (std::uint32_t c = 0; c < 16; ++c) {
    if (before[c] == dead) ++dead_clients;
  }
  ASSERT_TRUE(m.retire(dead));
  const std::uint32_t moved =
      m.replace_clients_of(dead, PlacementPolicy::kRendezvous);
  EXPECT_EQ(moved, dead_clients);
  for (std::uint32_t c = 0; c < 16; ++c) {
    const std::uint32_t now = m.assignment(c);
    ASSERT_NE(now, kNoShard);
    EXPECT_NE(now, dead);
    if (before[c] != dead) {
      EXPECT_EQ(now, before[c]) << "survivor client " << c << " moved";
    }
  }
  // assigned counts stay consistent with the assignment cells.
  std::uint32_t total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) total += m.shards[s].assigned.load();
  EXPECT_EQ(total, 16u);
  EXPECT_EQ(m.shards[dead].assigned.load(), 0u);
}

TEST(ShardMapTest, PickReturnsNoShardWhenAllRetired) {
  Map m;
  m.init(2);
  ASSERT_TRUE(m.retire(0));
  ASSERT_TRUE(m.retire(1));
  EXPECT_EQ(m.pick(0, PlacementPolicy::kLeastLoaded), kNoShard);
  EXPECT_EQ(m.pick(0, PlacementPolicy::kRendezvous), kNoShard);
  // replace_clients_of with no survivors leaves assignments untouched.
  m.assignment_of[3].store(0);
  EXPECT_EQ(m.replace_clients_of(0, PlacementPolicy::kRendezvous), 0u);
  EXPECT_EQ(m.assignment(3), 0u);
}

}  // namespace
}  // namespace ulipc
