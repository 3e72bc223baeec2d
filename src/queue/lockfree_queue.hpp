// Michael & Scott lock-free concurrent FIFO queue, shared-memory resident.
//
// The non-blocking half of the PODC'96 pair (the two-lock half is
// queue/ms_two_lock_queue.hpp). Nodes come from the same bounded NodePool;
// links are {tag:32, index:32} words (MsgNode::lf_next) CASed directly, so
// the structure is position independent and ABA-safe up to 2^32 rewrites
// of one link (DESIGN.md §18 records the caveat). head_/tail_ are counted
// the same way.
//
// Differences from the textbook version, required by our setting:
//  * bounded capacity via a CAS-reserve on size_ (the two-lock engine
//    counts under its locks instead; there are none here) — reserve
//    first, so a crash mid-enqueue can only leave size_
//    OVER-counting (fail-safe: a spurious non-empty probe, never a lost
//    wake-up). mark_reachable() heals the counter when it can prove the
//    queue quiescent (see below);
//  * crash-robustness replaces lock stealing with the algorithm's native
//    helping: a dead enqueuer's lagging tail is swung forward by the next
//    operation, so there is no repair path at all. The dequeue-side crash
//    window (old dummy detached but not yet released) is covered by the
//    pool's dequeue announcements (msg_pool.hpp): intent is published
//    before each head CAS, the winner additionally owner-stamps the dummy
//    right after winning, and the sweep reclaims announced nodes of dead
//    dequeuers after tag revalidation;
//  * validated reads: the message is copied out BEFORE the head CAS and
//    discarded if the CAS fails. The copy can race a recycler refilling
//    the node, so msg/span bytes move through relaxed atomic word copies
//    (lf_copy_words) on both the fill and the copy-out side — the real
//    publication ordering is the release link-CAS / acquire link-load
//    pair, exactly like the two-lock engine's next_ref discipline;
//  * explore markers reuse the kQ* points at the analogous linearization
//    steps (node ready / linked / done; pre-CAS snapshot / head advanced /
//    released), so the PR-5 crash-point suite and the Figure-4 replays run
//    unchanged against this engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/cacheline.hpp"
#include "explore/hooks.hpp"
#include "queue/message.hpp"
#include "queue/msg_pool.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

class LockFreeQueue {
 public:
  /// Builds a queue in `arena` (see TwoLockQueue::create for the
  /// contract). Prefer MsgQueue::create (queue/msg_queue.hpp), which
  /// placement-builds either engine behind one facade.
  static LockFreeQueue* create(ShmArena& arena, NodePool* pool,
                               std::uint32_t capacity = 0) {
    auto* q = arena.construct<LockFreeQueue>();
    q->init(pool, capacity);
    return q;
  }

  LockFreeQueue() = default;
  LockFreeQueue(const LockFreeQueue&) = delete;
  LockFreeQueue& operator=(const LockFreeQueue&) = delete;

  /// Second-phase constructor (the facade placement-news then inits).
  void init(NodePool* pool, std::uint32_t capacity) {
    pool_.set(pool);
    capacity_ = capacity == 0 ? std::numeric_limits<std::uint32_t>::max()
                              : capacity;
    const ShmIndex dummy = pool->allocate();
    ULIPC_INVARIANT(dummy != kNullIndex, "pool exhausted creating queue");
    pool->node(dummy).owner_pid = 0;  // the dummy belongs to the queue
    // lf_next keeps its release-time {tag, null} — the tag must only ever
    // move forward over a node's lifetime.
    const std::uint64_t lf =
        pool->lf_next(dummy).load(std::memory_order_relaxed);
    ULIPC_INVARIANT(lf_idx(lf) == kNullIndex, "fresh node with a live link");
    head_.value.store(lf_pack(0, dummy), std::memory_order_release);
    tail_.value.store(lf_pack(0, dummy), std::memory_order_release);
  }

  bool enqueue(const Message& msg, SpanStamp stamp = {}) noexcept {
    // Reserve capacity first so we never strand an allocated node, and so
    // a crash anywhere past this point leaves size_ over-counting, never
    // under (see header comment).
    std::uint32_t sz = size_.load(std::memory_order_relaxed);
    do {
      if (sz >= capacity_) return false;
    } while (!size_.compare_exchange_weak(sz, sz + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed));
    NodePool& pool = *pool_;
    const ShmIndex idx = pool.allocate();
    if (idx == kNullIndex) {
      size_.fetch_sub(1, std::memory_order_release);
      return false;
    }
    fill_node(pool, idx, msg, stamp);
    explore::point(explore::Point::kQEnqueueNodeReady);
    link_node(pool, idx);
    explore::point(explore::Point::kQEnqueueDone);
    return true;
  }

  /// Appends up to `n` messages with ONE link CAS: reserves capacity,
  /// pre-links the private chain, splices its head onto the tail node,
  /// then swings tail_ to the chain's last node (helpers may get there
  /// first, one hop at a time — both outcomes converge). Crash invariant
  /// matches scalar enqueue: after the splice the whole chain is reachable.
  std::uint32_t enqueue_batch(const Message* msgs, std::uint32_t n,
                              SpanStamp stamp = {}) noexcept {
    if (n == 0) return 0;
    std::uint32_t sz = size_.load(std::memory_order_relaxed);
    std::uint32_t want;
    do {
      if (sz >= capacity_) return 0;
      want = std::min(n, capacity_ - sz);
    } while (!size_.compare_exchange_weak(sz, sz + want,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed));
    NodePool& pool = *pool_;
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    const std::uint32_t got = pool.allocate_chain(want, &first, &last);
    // One pool-lock pass for the whole chain; re-link it through lf_next.
    ShmIndex idx = first;
    for (std::uint32_t i = 0; i < got; ++i) {
      const ShmIndex next = pool.node(idx).next;
      pool.node(idx).next = kNullIndex;  // fill_node's contract
      fill_node(pool, idx, msgs[i], i == 0 ? stamp : SpanStamp{});
      if (i + 1 < got) {
        // Private chain link: tag-bump like a public link so a stale CAS
        // from this node's previous life keeps failing.
        const std::uint64_t lf =
            pool.lf_next(idx).load(std::memory_order_relaxed);
        pool.lf_next(idx).store(lf_pack(lf_tag(lf) + 1, next),
                                std::memory_order_release);
      }
      idx = next;
    }
    if (got < want) size_.fetch_sub(want - got, std::memory_order_release);
    if (got == 0) return 0;
    explore::point(explore::Point::kQEnqueueNodeReady);
    link_chain(pool, first, last);
    explore::point(explore::Point::kQEnqueueDone);
    return got;
  }

  bool dequeue(Message* out, SpanStamp* stamp = nullptr) noexcept {
    NodePool& pool = *pool_;
    const int slot = pool.announce_slot();
    Message msg;
    SpanStamp sp;
    for (;;) {
      const std::uint64_t h = head_.value.load(std::memory_order_acquire);
      const std::uint64_t t = tail_.value.load(std::memory_order_acquire);
      const std::uint64_t next =
          pool.lf_next(lf_idx(h)).load(std::memory_order_acquire);
      if (h != head_.value.load(std::memory_order_acquire)) continue;
      if (lf_idx(next) == kNullIndex) return false;  // only the dummy
      if (lf_idx(h) == lf_idx(t)) {
        // Tail lags behind a linked node (its enqueuer stalled or died):
        // help it forward — the lock-free replacement for the two-lock
        // engine's repair_tail_from_head.
        std::uint64_t expect = t;
        tail_.value.compare_exchange_strong(
            expect, lf_pack(lf_tag(t) + 1, lf_idx(next)),
            std::memory_order_release, std::memory_order_relaxed);
        continue;
      }
      // Validated read: copy out before the CAS, discard on failure.
      lf_copy_words(&msg, &pool.node(lf_idx(next)).msg, sizeof(Message));
      lf_copy_words(&sp, &pool.node(lf_idx(next)).span, sizeof(SpanStamp));
      explore::point(explore::Point::kQDequeueLocked);
      // Publish detach intent before committing (crash cover — see
      // NodePool's announcement block comment).
      pool.announce_dequeue(slot, lf_idx(h), lf_tag(next));
      std::uint64_t expect = h;
      if (head_.value.compare_exchange_strong(
              expect, lf_pack(lf_tag(h) + 1, lf_idx(next)),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        // The old dummy is exclusively ours now; the stamp covers the
        // announcement-exhausted fallback and makes the generic
        // unmarked+dead-owner sweep rule apply too.
        std::atomic_ref<std::uint32_t>(pool.node(lf_idx(h)).owner_pid)
            .store(robust_self_pid(), std::memory_order_relaxed);
        explore::point(explore::Point::kQDequeueAdvanced);
        size_.fetch_sub(1, std::memory_order_release);
        pool.release(lf_idx(h));
        pool.clear_announce(slot);
        explore::point(explore::Point::kQDequeueDone);
        *out = msg;
        if (stamp != nullptr) *stamp = sp;
        return true;
      }
      pool.clear_announce(slot);
    }
  }

  /// Lock-free dequeue commits one node per CAS, so the batch variant is
  /// the scalar loop — there is no lock acquisition to amortize. (An
  /// LCRQ-style segmented ring would batch for real; DESIGN.md §18 leaves
  /// it as the named next step.) Returns how many were removed; `stamp`
  /// receives the LAST traced stamp like the two-lock engine.
  std::uint32_t dequeue_batch(Message* out, std::uint32_t max,
                              SpanStamp* stamp = nullptr) noexcept {
    if (stamp != nullptr) *stamp = SpanStamp{};
    SpanStamp sp;
    std::uint32_t got = 0;
    while (got < max && dequeue(out + got, &sp)) {
      if (stamp != nullptr && sp.traced()) *stamp = sp;
      ++got;
    }
    return got;
  }

  [[nodiscard]] bool empty() const noexcept {
    return size_.load(std::memory_order_acquire) == 0;
  }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  // ---- recovery interface (see queue/queue_recovery.hpp) ----

  /// Marks every node reachable from head_ (dummy included). No locks
  /// exist to freeze the queue, so the walk is bounded and conservative:
  /// it may mark nodes a racing dequeuer just detached (their releaser
  /// will return them — marking only means "not leaked"). size_ is
  /// reseated ONLY when the walk can prove quiescence (head, size, and
  /// the walked tail's link all stable across the walk); a busy queue's
  /// counter heals at the next quiet sweep instead. Returns the counted
  /// elements (walk length minus the dummy).
  std::uint32_t mark_reachable(std::vector<char>& mark) noexcept {
    NodePool& pool = *pool_;
    const std::uint64_t h0 = head_.value.load(std::memory_order_acquire);
    const std::uint32_t sz0 = size_.load(std::memory_order_acquire);
    std::uint32_t visited = 0;
    ShmIndex i = lf_idx(h0);
    ShmIndex last = i;
    while (i != kNullIndex && visited <= pool.capacity()) {
      mark[i] = 1;
      ++visited;
      last = i;
      i = lf_idx(pool.lf_next(i).load(std::memory_order_acquire));
    }
    const std::uint32_t count = visited > 0 ? visited - 1 : 0;
    const bool quiescent =
        head_.value.load(std::memory_order_acquire) == h0 &&
        size_.load(std::memory_order_acquire) == sz0 &&
        lf_idx(pool.lf_next(last).load(std::memory_order_acquire)) ==
            kNullIndex;
    if (quiescent && sz0 != count) {
      // Heal the over-count a dead enqueuer leaves between its capacity
      // reservation and its link CAS. Quiescence can still be spoofed by
      // a reserver parked for the whole walk, whose reservation the reseat
      // then erases (DESIGN.md §18); the two-lock engine avoids this by
      // counting under its locks.
      size_.store(count, std::memory_order_release);
    }
    return count;
  }

  /// Visits every PENDING message (dummy skipped) for payload pinning.
  /// Same bounded, conservative walk as mark_reachable — an extra visit
  /// pins a payload slot for one sweep, never unpins one.
  template <typename Fn>
  void for_each_pending(Fn&& fn) noexcept {
    NodePool& pool = *pool_;
    std::uint32_t visited = 0;
    ShmIndex i = lf_idx(head_.value.load(std::memory_order_acquire));
    if (i != kNullIndex) {
      i = lf_idx(pool.lf_next(i).load(std::memory_order_acquire));
    }
    for (; i != kNullIndex && visited < pool.capacity();
         i = lf_idx(pool.lf_next(i).load(std::memory_order_acquire))) {
      fn(pool.node(i).msg);
      ++visited;
    }
  }

  std::uint32_t drain() noexcept {
    Message scratch;
    std::uint32_t n = 0;
    while (dequeue(&scratch)) ++n;
    return n;
  }

  /// TEST ONLY: models the worst-case enqueuer death — the node is linked
  /// (message durable, like the two-lock version dying with the tail lock
  /// held) but tail_ is left lagging for the next operation to help
  /// forward. Calling process must exit immediately.
  [[gnu::noinline]] ShmIndex crash_mid_enqueue_for_test(
      const Message& msg) noexcept {
    size_.fetch_add(1, std::memory_order_acquire);
    NodePool& pool = *pool_;
    const ShmIndex idx = pool.allocate();
    if (idx == kNullIndex) return kNullIndex;
    fill_node(pool, idx, msg, SpanStamp{});
    for (;;) {
      const std::uint64_t t = tail_.value.load(std::memory_order_acquire);
      const std::uint64_t next =
          pool.lf_next(lf_idx(t)).load(std::memory_order_acquire);
      if (lf_idx(next) != kNullIndex) {
        std::uint64_t expect = t;
        tail_.value.compare_exchange_strong(
            expect, lf_pack(lf_tag(t) + 1, lf_idx(next)),
            std::memory_order_release, std::memory_order_relaxed);
        continue;
      }
      std::uint64_t expect = next;
      if (pool.lf_next(lf_idx(t)).compare_exchange_strong(
              expect, lf_pack(lf_tag(next) + 1, idx),
              std::memory_order_release, std::memory_order_relaxed)) {
        // Deliberately no tail swing.
        return idx;
      }
    }
  }

 private:
  static void fill_node(NodePool& pool, ShmIndex idx, const Message& msg,
                        SpanStamp stamp) noexcept {
    MsgNode& node = pool.node(idx);
    lf_copy_words(&node.msg, &msg, sizeof(Message));
    lf_copy_words(&node.span, &stamp, sizeof(SpanStamp));
    // node.next (free-list link) was already nulled by allocate() (or by
    // enqueue_batch's chain walk);
    // lf_next keeps its {tag, null} from release() — never reset the tag.
  }

  void link_node(NodePool& pool, ShmIndex idx) noexcept {
    link_chain(pool, idx, idx);
  }

  /// Splices the private chain first..last after the current tail node and
  /// swings tail_ to `last`.
  void link_chain(NodePool& pool, ShmIndex first, ShmIndex last) noexcept {
    for (;;) {
      const std::uint64_t t = tail_.value.load(std::memory_order_acquire);
      const std::uint64_t next =
          pool.lf_next(lf_idx(t)).load(std::memory_order_acquire);
      if (t != tail_.value.load(std::memory_order_acquire)) continue;
      if (lf_idx(next) != kNullIndex) {
        // Tail lags: help it one hop, then retry.
        std::uint64_t expect = t;
        tail_.value.compare_exchange_strong(
            expect, lf_pack(lf_tag(t) + 1, lf_idx(next)),
            std::memory_order_release, std::memory_order_relaxed);
        continue;
      }
      std::uint64_t expect = next;
      if (pool.lf_next(lf_idx(t)).compare_exchange_strong(
              expect, lf_pack(lf_tag(next) + 1, first),
              std::memory_order_release, std::memory_order_relaxed)) {
        explore::point(explore::Point::kQEnqueueLinked);
        // Swing tail to the chain's end; helpers advancing one hop at a
        // time make this CAS best-effort.
        std::uint64_t te = t;
        tail_.value.compare_exchange_strong(
            te, lf_pack(lf_tag(t) + 1, last), std::memory_order_release,
            std::memory_order_relaxed);
        return;
      }
    }
  }

  // Consumer side, producer side, and the shared size counter each own
  // their cache line(s), mirroring the two-lock engine's layout audit.
  CacheAligned<std::atomic<std::uint64_t>> head_;
  CacheAligned<std::atomic<std::uint64_t>> tail_;
  alignas(kCacheLineSize) std::atomic<std::uint32_t> size_{0};
  std::uint32_t capacity_ = 0;
  OffsetPtr<NodePool> pool_;

  static_assert(sizeof(CacheAligned<std::atomic<std::uint64_t>>) ==
                    kCacheLineSize,
                "head/tail words must each own a full cache line");
};

static_assert(alignof(LockFreeQueue) == kCacheLineSize,
              "queue must be line-aligned for the member asserts to hold");

}  // namespace ulipc
