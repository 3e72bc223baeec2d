#include "queue/msg_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "explore/invariants.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class NodePoolTest : public ::testing::Test {
 protected:
  NodePoolTest()
      : region_(ShmRegion::create_anonymous(256 * 1024)),
        arena_(ShmArena::format(region_)) {}

  /// Walks a chain through `next`, checking its length, its end, that
  /// every node is distinct and stamped with this process's pid.
  static void expect_chain(NodePool& pool, ShmIndex first, ShmIndex last,
                           std::uint32_t n, std::set<ShmIndex>* seen) {
    ShmIndex i = first;
    for (std::uint32_t k = 0; k < n; ++k) {
      ASSERT_NE(i, kNullIndex) << "chain shorter than its count";
      EXPECT_TRUE(seen->insert(i).second) << "node " << i << " handed twice";
      EXPECT_EQ(pool.node(i).owner_pid, robust_self_pid());
      if (k + 1 == n) {
        EXPECT_EQ(i, last);
        EXPECT_EQ(pool.node(i).next, kNullIndex) << "chain not cut";
      }
      i = pool.node(i).next;
    }
  }

  ShmRegion region_;
  ShmArena arena_;
};

TEST_F(NodePoolTest, CapacityAndInitialFreeCount) {
  NodePool* pool = NodePool::create(arena_, 16);
  EXPECT_EQ(pool->capacity(), 16u);
  EXPECT_EQ(pool->free_count(), 16u);
}

TEST_F(NodePoolTest, AllocateAllThenExhaust) {
  NodePool* pool = NodePool::create(arena_, 8);
  std::set<ShmIndex> seen;
  for (int i = 0; i < 8; ++i) {
    const ShmIndex idx = pool->allocate();
    ASSERT_NE(idx, kNullIndex);
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate node handed out";
  }
  EXPECT_EQ(pool->allocate(), kNullIndex);
  EXPECT_EQ(pool->free_count(), 0u);
}

TEST_F(NodePoolTest, ReleaseRecycles) {
  NodePool* pool = NodePool::create(arena_, 2);
  const ShmIndex a = pool->allocate();
  const ShmIndex b = pool->allocate();
  EXPECT_EQ(pool->allocate(), kNullIndex);
  pool->release(a);
  const ShmIndex c = pool->allocate();
  EXPECT_EQ(c, a) << "LIFO free list returns the last released node";
  pool->release(b);
  pool->release(c);
  EXPECT_EQ(pool->free_count(), 2u);
}

TEST_F(NodePoolTest, NodePayloadIsWritable) {
  NodePool* pool = NodePool::create(arena_, 4);
  const ShmIndex idx = pool->allocate();
  pool->node(idx).msg = Message(Op::kEcho, 9, 2.25);
  EXPECT_EQ(pool->node(idx).msg.channel, 9u);
  EXPECT_DOUBLE_EQ(pool->node(idx).msg.value, 2.25);
}

TEST_F(NodePoolTest, ManyCycles) {
  NodePool* pool = NodePool::create(arena_, 4);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ShmIndex idx[4];
    for (auto& i : idx) {
      i = pool->allocate();
      ASSERT_NE(i, kNullIndex);
    }
    for (const auto i : idx) pool->release(i);
  }
  EXPECT_EQ(pool->free_count(), 4u);
}

TEST_F(NodePoolTest, ChainOfZeroTouchesNothing) {
  NodePool* pool = NodePool::create(arena_, 4);
  ShmIndex first = 0;
  ShmIndex last = 0;
  EXPECT_EQ(pool->allocate_chain(0, &first, &last), 0u);
  EXPECT_EQ(first, kNullIndex);
  EXPECT_EQ(last, kNullIndex);
  pool->release_chain(kNullIndex, 0);
  EXPECT_EQ(pool->free_count(), 4u);
}

TEST_F(NodePoolTest, ChainComesOutLinkedCutAndStamped) {
  NodePool* pool = NodePool::create(arena_, 16);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(5, &first, &last), 5u);
  EXPECT_EQ(pool->free_count(), 11u);
  std::set<ShmIndex> seen;
  expect_chain(*pool, first, last, 5, &seen);
  // The rest of the pool is still allocatable and disjoint from the chain.
  for (int i = 0; i < 11; ++i) {
    const ShmIndex idx = pool->allocate();
    ASSERT_NE(idx, kNullIndex);
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(pool->allocate(), kNullIndex);
}

TEST_F(NodePoolTest, PartialChainNearExhaustion) {
  NodePool* pool = NodePool::create(arena_, 8);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(5, &first, &last), 5u);
  ShmIndex first2 = kNullIndex;
  ShmIndex last2 = kNullIndex;
  EXPECT_EQ(pool->allocate_chain(6, &first2, &last2), 3u)
      << "a short pool yields a short chain";
  EXPECT_EQ(pool->free_count(), 0u);
  std::set<ShmIndex> seen;
  expect_chain(*pool, first, last, 5, &seen);
  expect_chain(*pool, first2, last2, 3, &seen);
  ShmIndex first3 = 0;
  ShmIndex last3 = 0;
  EXPECT_EQ(pool->allocate_chain(1, &first3, &last3), 0u);
  EXPECT_EQ(first3, kNullIndex);
  EXPECT_EQ(last3, kNullIndex);
  pool->release_chain(first2, 3);
  EXPECT_EQ(pool->free_count(), 3u);
  pool->release_chain(first, 5);
  EXPECT_EQ(pool->free_count(), 8u);
}

TEST_F(NodePoolTest, ChainThatEmptiesThePoolAndComesBack) {
  NodePool* pool = NodePool::create(arena_, 8);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(8, &first, &last), 8u);
  EXPECT_EQ(pool->free_count(), 0u);
  EXPECT_EQ(pool->allocate(), kNullIndex);
  std::vector<std::uint32_t> tags;
  for (ShmIndex i = first; i != kNullIndex; i = pool->node(i).next) {
    tags.push_back(lf_tag(pool->lf_next(i).load()));
  }
  pool->release_chain(first, 8);
  EXPECT_EQ(pool->free_count(), 8u);
  for (ShmIndex i = 0; i < 8; ++i) {
    EXPECT_EQ(pool->node(i).owner_pid, 0u);
    EXPECT_EQ(lf_idx(pool->lf_next(i).load()), kNullIndex);
  }
  // Every released node's lock-free tag moved exactly one step.
  std::set<ShmIndex> seen;
  ASSERT_EQ(pool->allocate_chain(8, &first, &last), 8u);
  expect_chain(*pool, first, last, 8, &seen);
  std::uint32_t tag_sum_before = 0;
  std::uint32_t tag_sum_after = 0;
  for (const std::uint32_t t : tags) tag_sum_before += t;
  for (ShmIndex i = 0; i < 8; ++i) {
    tag_sum_after += lf_tag(pool->lf_next(i).load());
  }
  EXPECT_EQ(tag_sum_after, tag_sum_before + 8);
  pool->release_chain(first, 8);
  EXPECT_EQ(explore::check_invariants(*pool, {}).to_string(), "ok");
}

TEST_F(NodePoolTest, ReleaseChainStopsAtItsCount) {
  // The link out of the n-th node is ignored: releasing a prefix of a
  // longer run leaves the suffix allocated.
  NodePool* pool = NodePool::create(arena_, 8);
  ShmIndex first = kNullIndex;
  ShmIndex last = kNullIndex;
  ASSERT_EQ(pool->allocate_chain(6, &first, &last), 6u);
  ShmIndex suffix = first;
  for (int k = 0; k < 4; ++k) suffix = pool->node(suffix).next;
  pool->release_chain(first, 4);
  EXPECT_EQ(pool->free_count(), 6u);
  EXPECT_EQ(pool->node(suffix).owner_pid, robust_self_pid())
      << "the unreleased suffix is still ours";
  pool->release_chain(suffix, 2);
  EXPECT_EQ(pool->free_count(), 8u);
  EXPECT_EQ(explore::check_invariants(*pool, {}).to_string(), "ok");
}

TEST_F(NodePoolTest, ChainsMixWithScalarOps) {
  NodePool* pool = NodePool::create(arena_, 32);
  std::mt19937 rng(7);
  struct Held {
    ShmIndex first = kNullIndex;
    std::uint32_t n;
  };
  std::vector<Held> held;
  std::uint32_t out = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t op = rng() % 4;
    if (op == 0) {
      const ShmIndex idx = pool->allocate();
      if (idx != kNullIndex) {
        held.push_back({idx, 1});
        ++out;
      } else {
        EXPECT_EQ(out, 32u);
      }
    } else if (op == 1) {
      const std::uint32_t want = rng() % 9;
      ShmIndex first = kNullIndex;
      ShmIndex last = kNullIndex;
      const std::uint32_t got = pool->allocate_chain(want, &first, &last);
      EXPECT_EQ(got, std::min(want, 32 - out));
      if (got > 0) held.push_back({first, got});
      out += got;
    } else if (!held.empty()) {
      const std::size_t pick = rng() % held.size();
      const Held h = held[pick];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      if (h.n == 1 && op == 2) {
        pool->release(h.first);
      } else {
        pool->release_chain(h.first, h.n);
      }
      out -= h.n;
    }
    ASSERT_EQ(pool->free_count(), 32 - out) << "step " << step;
  }
  for (const Held& h : held) pool->release_chain(h.first, h.n);
  EXPECT_EQ(pool->free_count(), 32u);
  EXPECT_EQ(explore::check_invariants(*pool, {}).to_string(), "ok");
}

TEST_F(NodePoolTest, FourThreadChainSoak) {
  // Four threads pop chains (and single nodes) and push them back. Each
  // tags its nodes with its own id while it holds them, so a node handed
  // to two threads at once shows up as a foreign tag.
  constexpr std::uint32_t kCapacity = 64;
  constexpr int kThreads = 4;
  NodePool* pool = NodePool::create(arena_, kCapacity);
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) + 1);
      for (int round = 0; round < 20'000; ++round) {
        ShmIndex first = kNullIndex;
        ShmIndex last = kNullIndex;
        const std::uint32_t want = 1 + rng() % 16;
        const std::uint32_t got = pool->allocate_chain(want, &first, &last);
        ShmIndex i = first;
        for (std::uint32_t k = 0; k < got; ++k, i = pool->node(i).next) {
          pool->node(i).msg.channel = static_cast<std::uint32_t>(t);
        }
        i = first;
        for (std::uint32_t k = 0; k < got; ++k, i = pool->node(i).next) {
          if (pool->node(i).msg.channel != static_cast<std::uint32_t>(t)) {
            corrupt.fetch_add(1);
          }
        }
        if (got == 1 && (round & 1) != 0) {
          pool->release(first);
        } else {
          pool->release_chain(first, got);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(pool->free_count(), kCapacity);
  EXPECT_EQ(explore::check_invariants(*pool, {}).to_string(), "ok");
}

}  // namespace
}  // namespace ulipc
