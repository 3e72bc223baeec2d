// Michael & Scott two-lock concurrent FIFO queue, shared-memory resident.
//
// The paper: "The evaluation software uses a common implementation of the
// Michael and Scott two-lock queue [9]". The algorithm (PODC'96) keeps a
// dummy node so that enqueuers (tail lock) and dequeuers (head lock) never
// touch the same node except at the empty<->nonempty transition, which is
// safe because an enqueuer writes node.next only after fully initializing
// the node, and the dequeuer reads head->next under the head lock.
//
// Differences from the textbook version, required by our setting:
//  * nodes come from a bounded NodePool in the same shared region and are
//    linked by 32-bit indices (position independent);
//  * the queue is bounded: enqueue() returns false on a full queue (node
//    pool exhausted or per-queue capacity reached) — the paper's protocols
//    handle that with sleep(1) flow control;
//  * a size counter supports the capacity bound and the empty()/size()
//    probes the BSLS protocol polls. It only moves inside the lock that
//    orders the matching structural change (tail lock: count, then link;
//    head lock: advance, then uncount), so a recovery sweep holding both
//    locks sees it exact for every live process and can reseat it to the
//    reachable count without erasing an in-flight operation;
//  * batched variants (enqueue_batch/dequeue_batch) amortize one lock
//    acquisition over a whole burst: the enqueuer fills its node chain
//    outside the lock and splices it with two writes, the dequeuer walks
//    the list once under the head lock and releases the detached nodes
//    after dropping it. Each side's nodes move through the pool as one
//    chain (NodePool::allocate_chain / release_chain), so a batch also
//    costs one pool-lock pass, not one per node;
//  * the empty<->nonempty hand-off is the one point where the two critical
//    sections touch without a common lock: the enqueuer link-publishes
//    old_tail->next under the TAIL lock while a dequeuer reads it under the
//    HEAD lock. That store is therefore a release and every dequeue-side
//    read of a possibly-live next link an acquire (next_ref()), which also
//    orders the node's msg writes before the consumer's copy-out. Links of
//    nodes that are private (pre-linked chain, detached run, both locks
//    held) stay plain accesses;
//  * the head/tail locks are RobustSpinlocks: if a process dies inside a
//    critical section, the next contender steals the lock after a liveness
//    probe and runs a repair path. The enqueue critical section orders its
//    two writes (link chain, then advance tail) so the only possible
//    mid-update state is "tail lags the last linked node". Crucially, a
//    stale tail_ must never be DEREFERENCED during repair: while the tail
//    lock sat with the corpse, dequeuers may have drained past the lagging
//    tail and released the node it names back to the free list (whose next
//    links are free-list links). repair_tail_from_head() therefore
//    recomputes the last node by walking from head_ under BOTH locks.
//    Lock order wherever both are taken: tail, then head (the steal path
//    already holds tail; dequeue takes head alone and never tail, so the
//    ordering cannot deadlock). The dequeue critical section is
//    single-assignment (head_ = next) — batched or not — and needs no
//    structural repair; a corpse can only leak its detached nodes (and,
//    dying inside a critical section, leave size_ stale), both healed by
//    the recovery sweep (queue/queue_recovery.hpp).
#pragma once

#include <algorithm>
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

class TwoLockQueue {
 public:
  /// Builds a queue in `arena`, drawing nodes from `pool` (which must live
  /// in the same region). `capacity` bounds the number of queued messages;
  /// 0 means "bounded only by pool exhaustion".
  static TwoLockQueue* create(ShmArena& arena, NodePool* pool,
                              std::uint32_t capacity = 0) {
    auto* q = arena.construct<TwoLockQueue>();
    q->init(pool, capacity);
    return q;
  }

  TwoLockQueue() = default;
  TwoLockQueue(const TwoLockQueue&) = delete;
  TwoLockQueue& operator=(const TwoLockQueue&) = delete;

  /// Second-phase constructor (the MsgQueue facade placement-news the
  /// engine of its choice and then inits it).
  void init(NodePool* pool, std::uint32_t capacity) {
    pool_.set(pool);
    capacity_ = capacity == 0 ? std::numeric_limits<std::uint32_t>::max()
                              : capacity;
    const ShmIndex dummy = pool->allocate();
    ULIPC_INVARIANT(dummy != kNullIndex, "pool exhausted creating queue");
    pool->node(dummy).next = kNullIndex;
    pool->node(dummy).owner_pid = 0;  // the dummy belongs to the queue
    head_.value = dummy;
    tail_.value = dummy;
  }

  /// Appends a message. Returns false (queue full) if the capacity bound is
  /// reached or the node pool is exhausted. `stamp` rides in the node next
  /// to the message (default: untraced); it is written before the link
  /// publication, so the dequeuer's acquire read of the next link orders it
  /// exactly like the msg bytes.
  bool enqueue(const Message& msg, SpanStamp stamp = {}) noexcept {
    NodePool& pool = *pool_;
    {
      // Counted first, filled and linked after, all under the tail lock: a
      // consumer polling empty() sees the message coming while its node is
      // still being filled, and a sweep holding both locks never meets a
      // half-counted enqueue.
      RobustGuard g(tail_lock_.value);
      if (g.stolen()) repair_tail_from_head(pool);
      // One RMW, then undo if full: producers are serialized here and
      // consumers only decrement, so the count cannot be overtaken.
      if (size_.fetch_add(1, std::memory_order_acq_rel) >= capacity_) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        return false;
      }
      const ShmIndex node_idx = pool.allocate();
      if (node_idx == kNullIndex) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        return false;
      }
      MsgNode& node = pool.node(node_idx);
      // Word stores, not plain assignment: in a mixed-engine pool a slow
      // lock-free dequeuer may still be (atomically) reading this recycled
      // node's bytes — see lf_copy_words in queue/msg_pool.hpp.
      lf_copy_words(&node.msg, &msg, sizeof(Message));
      lf_copy_words(&node.span, &stamp, sizeof(SpanStamp));
      node.next = kNullIndex;
      explore::point(explore::Point::kQEnqueueNodeReady);
      next_ref(pool.node(tail_.value))
          .store(node_idx, std::memory_order_release);
      explore::point(explore::Point::kQEnqueueLinked);
      tail_.value = node_idx;
    }
    explore::point(explore::Point::kQEnqueueDone);
    return true;
  }

  /// Appends up to `n` messages with ONE tail-lock acquisition and ONE
  /// pool-lock pass: takes a chain sized by the free room from the pool
  /// (already linked — allocate_chain), fills it outside the lock, then
  /// splices as much of it as the room under the lock allows with the same
  /// two ordered writes as a scalar enqueue (so the crash invariant is
  /// unchanged — tail can only lag the last linked node). Returns how many
  /// were appended; fewer than `n` (possibly 0) when the capacity bound or
  /// the node pool runs out. The batch carries at most one stamp, on its
  /// first node — span fidelity degrades to one-sample-per-batch on
  /// batched paths.
  std::uint32_t enqueue_batch(const Message* msgs, std::uint32_t n,
                              SpanStamp stamp = {}) noexcept {
    if (n == 0) return 0;
    const std::uint32_t sz0 = size_.load(std::memory_order_relaxed);
    if (sz0 >= capacity_) return 0;
    const std::uint32_t want = std::min(n, capacity_ - sz0);

    NodePool& pool = *pool_;
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    std::uint32_t got = pool.allocate_chain(want, &first, &last);
    if (got == 0) return 0;  // pool exhausted
    ShmIndex idx = first;
    for (std::uint32_t i = 0; i < got; ++i) {
      MsgNode& node = pool.node(idx);
      lf_copy_words(&node.msg, &msgs[i], sizeof(Message));
      const SpanStamp sp = i == 0 ? stamp : SpanStamp{};
      lf_copy_words(&node.span, &sp, sizeof(SpanStamp));
      idx = node.next;
    }
    explore::point(explore::Point::kQEnqueueNodeReady);
    ShmIndex spare = kNullIndex;  // chain suffix the room did not admit
    std::uint32_t spare_n = 0;
    {
      RobustGuard g(tail_lock_.value);
      if (g.stolen()) repair_tail_from_head(pool);
      const std::uint32_t sz = size_.load(std::memory_order_relaxed);
      const std::uint32_t room = sz >= capacity_ ? 0 : capacity_ - sz;
      if (room < got) {
        // Lost a race for the room (rare: the queue is near its bound).
        // Cut the private chain before publishing any of it.
        spare_n = got - room;
        if (room == 0) {
          spare = first;
        } else {
          last = first;
          for (std::uint32_t i = 1; i < room; ++i) {
            last = pool.node(last).next;
          }
          spare = pool.node(last).next;
          pool.node(last).next = kNullIndex;
        }
        got = room;
      }
      if (got > 0) {
        size_.fetch_add(got, std::memory_order_acq_rel);
        next_ref(pool.node(tail_.value))
            .store(first, std::memory_order_release);
        explore::point(explore::Point::kQEnqueueLinked);
        tail_.value = last;
      }
    }
    pool.release_chain(spare, spare_n);
    if (got > 0) explore::point(explore::Point::kQEnqueueDone);
    return got;
  }

  /// Removes the oldest message into *out. Returns false if empty. When
  /// `stamp` is non-null it receives the node's span stamp (id 0 =
  /// untraced).
  bool dequeue(Message* out, SpanStamp* stamp = nullptr) noexcept {
    NodePool& pool = *pool_;
    ShmIndex old_head;
    {
      RobustGuard g(head_lock_.value);
      // A steal here needs no structural repair: head_ always points at a
      // valid dummy whose next link is either null or a complete node.
      explore::point(explore::Point::kQDequeueLocked);
      old_head = head_.value;
      const ShmIndex next =
          next_ref(pool.node(old_head)).load(std::memory_order_acquire);
      if (next == kNullIndex) return false;  // only the dummy remains
      *out = pool.node(next).msg;  // new dummy keeps its (copied-out) msg
      if (stamp != nullptr) *stamp = pool.node(next).span;
      // Take ownership of the dummy BEFORE detaching it: once head_
      // advances it is unreachable, and the recovery sweep only reclaims
      // unreachable nodes with a provably-dead owner. The initial dummy's
      // owner is 0 (the queue's), and a later dummy's owner is whichever
      // enqueuer brought it — likely still alive; either way, if we die
      // between the advance and release(), nobody could reclaim it.
      pool.node(old_head).owner_pid = robust_self_pid();
      head_.value = next;
      size_.fetch_sub(1, std::memory_order_acq_rel);
      explore::point(explore::Point::kQDequeueAdvanced);
    }
    pool.release(old_head);
    explore::point(explore::Point::kQDequeueDone);
    return true;
  }

  /// Removes up to `max` messages with ONE head-lock acquisition. The
  /// critical section stays a single head_ assignment (after copying the
  /// messages out), so the crash invariant matches scalar dequeue. The
  /// detached nodes — unreachable once head_ advances — are released after
  /// the lock is dropped, with one release_chain. Returns how many were
  /// removed (0 when empty). When `stamp` is non-null it receives the LAST
  /// traced stamp in the batch (id 0 if none was traced).
  std::uint32_t dequeue_batch(Message* out, std::uint32_t max,
                              SpanStamp* stamp = nullptr) noexcept {
    if (max == 0) return 0;
    NodePool& pool = *pool_;
    ShmIndex chain;  // old dummy; start of the detached run
    std::uint32_t got = 0;
    {
      RobustGuard g(head_lock_.value);
      explore::point(explore::Point::kQDequeueLocked);
      ShmIndex head = head_.value;
      chain = head;
      // Own every node of the soon-to-be-detached run (see scalar dequeue):
      // the chain holds the old dummy plus nodes owned by their enqueuers,
      // who may be alive — a crash between the head advance and the
      // releases below must leave the run reclaimable by the sweep.
      const std::uint32_t me = robust_self_pid();
      pool.node(head).owner_pid = me;
      if (stamp != nullptr) *stamp = SpanStamp{};
      while (got < max) {
        const ShmIndex next =
            next_ref(pool.node(head)).load(std::memory_order_acquire);
        if (next == kNullIndex) break;
        out[got++] = pool.node(next).msg;
        if (stamp != nullptr && pool.node(next).span.traced()) {
          *stamp = pool.node(next).span;
        }
        head = next;
        pool.node(head).owner_pid = me;
      }
      if (got == 0) return 0;
      head_.value = head;  // the last dequeued node is the new dummy
      size_.fetch_sub(got, std::memory_order_acq_rel);
      explore::point(explore::Point::kQDequeueAdvanced);
    }
    // Release the old dummy plus the first got-1 message nodes in one pool
    // pass: their next links still form the run, every node carries our
    // stamp, and no other process can reach them.
    pool.release_chain(chain, got);
    explore::point(explore::Point::kQDequeueDone);
    return got;
  }

  /// Cheap emptiness probe (no locks) — what BSLS's poll loop reads.
  [[nodiscard]] bool empty() const noexcept {
    return size_.load(std::memory_order_acquire) == 0;
  }

  /// Racy size snapshot.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  // ---- recovery interface (see queue/queue_recovery.hpp) ----

  [[nodiscard]] RobustSpinlock& head_lock() noexcept {
    return head_lock_.value;
  }
  [[nodiscard]] RobustSpinlock& tail_lock() noexcept {
    return tail_lock_.value;
  }

  /// Takes both locks (tail first — the process-wide ordering), repairs
  /// the tail, re-marks every node reachable from head_ (dummy included)
  /// in `mark` (capacity() entries of the node pool), and reseats size_ to
  /// the actual element count — exact for live processes, which only move
  /// size_ under these locks; the reseat drops what a corpse's critical
  /// section left behind. Returns the recounted size.
  std::uint32_t mark_reachable(std::vector<char>& mark) noexcept {
    NodePool& pool = *pool_;
    RobustGuard gt(tail_lock_.value);
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
    std::uint32_t visited = 0;
    for (ShmIndex i = head_.value;
         i != kNullIndex && visited <= pool.capacity();
         i = pool.node(i).next) {
      mark[i] = 1;
      ++visited;
    }
    // Elements = everything reachable minus the dummy itself.
    const std::uint32_t count = visited > 0 ? visited - 1 : 0;
    size_.store(count, std::memory_order_release);
    return count;
  }

  /// Visits every PENDING message under both locks — head->next through
  /// tail, skipping the dummy, whose msg is a stale copy of the last
  /// DELIVERED message. The recovery sweep uses this to pin payload slots
  /// referenced by messages still in flight: a delivered message's slot is
  /// protected by its holder's owner stamp instead, so the dummy (and
  /// free-listed nodes, which also retain stale copies) must not pin —
  /// they would leak dead holders' slots forever once traffic stops.
  template <typename Fn>
  void for_each_pending(Fn&& fn) noexcept {
    NodePool& pool = *pool_;
    RobustGuard gt(tail_lock_.value);
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
    std::uint32_t visited = 0;
    ShmIndex i = head_.value;
    if (i != kNullIndex) i = pool.node(i).next;  // skip the dummy
    for (; i != kNullIndex && visited < pool.capacity();
         i = pool.node(i).next) {
      fn(pool.node(i).msg);
      ++visited;
    }
  }

  /// Drains every message currently in the queue (discarding them),
  /// releasing their nodes back to the pool one batch at a time. Used when
  /// reclaiming a dead peer's queues. Returns the number of messages
  /// discarded.
  std::uint32_t drain() noexcept {
    Message scratch[kDrainBatch];
    std::uint32_t n = 0;
    while (const std::uint32_t got = dequeue_batch(scratch, kDrainBatch)) {
      n += got;
    }
    return n;
  }

  /// TEST ONLY: performs the first half of an enqueue — allocates the node,
  /// then under the tail lock counts and links it — and returns with the
  /// tail lock STILL HELD and tail_ not advanced. Calling process must exit
  /// immediately; this models a producer dying at the worst possible point
  /// of the critical section. Returns the linked node index. noinline: inlined
  /// into a fork-child lambda, GCC's object-size pass misjudges the
  /// arena-resident queue as size 0 and flags the fetch_add
  /// (-Wstringop-overflow false positive); cold test-only code anyway.
  [[gnu::noinline]] ShmIndex crash_mid_enqueue_for_test(
      const Message& msg) noexcept {
    NodePool& pool = *pool_;
    const ShmIndex node_idx = pool.allocate();
    if (node_idx == kNullIndex) return kNullIndex;
    MsgNode& node = pool.node(node_idx);
    const SpanStamp sp{};
    lf_copy_words(&node.msg, &msg, sizeof(Message));
    lf_copy_words(&node.span, &sp, sizeof(SpanStamp));
    node.next = kNullIndex;
    (void)tail_lock_.value.lock();
    size_.fetch_add(1, std::memory_order_acq_rel);
    next_ref(pool.node(tail_.value))
        .store(node_idx, std::memory_order_release);
    // Deliberately neither advances tail_ nor unlocks.
    return node_idx;
  }

 private:
  static constexpr std::uint32_t kDrainBatch = 32;

  /// Atomic view of a node's next link for the enqueue-side publication and
  /// the dequeue-side reads that may race with it (see the header comment).
  static std::atomic_ref<ShmIndex> next_ref(MsgNode& n) noexcept {
    return std::atomic_ref<ShmIndex>(n.next);
  }
  /// Fixes the one invariant a dead enqueuer can break: tail_ must point
  /// at the last linked node. Caller holds the tail lock; this briefly
  /// takes the head lock too (tail-then-head order) because the stale
  /// tail_ may name a node that dequeuers already released — it must be
  /// recomputed from head_, never followed.
  void repair_tail_from_head(NodePool& pool) noexcept {
    RobustGuard gh(head_lock_.value);
    repair_tail_under_both_locks(pool);
  }

  void repair_tail_under_both_locks(NodePool& pool) noexcept {
    ShmIndex last = head_.value;
    std::uint32_t hops = 0;
    while (pool.node(last).next != kNullIndex && hops <= pool.capacity()) {
      last = pool.node(last).next;
      ++hops;
    }
    tail_.value = last;
  }

  // False-sharing audit: the consumer side (head lock + head offset), the
  // producer side (tail lock + tail offset), and the shared size counter
  // each get their own cache line(s). head_/tail_ are CacheAligned too —
  // the lock and the offset it protects are written by the same role, but
  // the offsets are also READ by the recovery walker and the repair path,
  // and sharing a line with a spinlock word that contending processes CAS
  // on would drag those reads into the contention.
  CacheAligned<RobustSpinlock> head_lock_;
  CacheAligned<ShmIndex> head_{kNullIndex};

  CacheAligned<RobustSpinlock> tail_lock_;
  CacheAligned<ShmIndex> tail_{kNullIndex};

  alignas(kCacheLineSize) std::atomic<std::uint32_t> size_{0};
  std::uint32_t capacity_ = 0;
  OffsetPtr<NodePool> pool_;

  // Layout guarantees: every CacheAligned member spans whole lines and the
  // struct itself is line-aligned, so consecutive members above can never
  // share a line. (offsetof would be more direct, but CacheAligned is not
  // standard-layout; whole-line sizes imply the same separation.)
  static_assert(sizeof(CacheAligned<RobustSpinlock>) % kCacheLineSize == 0,
                "lock padding must fill whole cache lines");
  static_assert(sizeof(CacheAligned<ShmIndex>) == kCacheLineSize,
                "queue offsets must each own a full cache line");
  static_assert(alignof(CacheAligned<RobustSpinlock>) == kCacheLineSize &&
                    alignof(CacheAligned<ShmIndex>) == kCacheLineSize,
                "per-role members must start on a line boundary");
};

static_assert(alignof(TwoLockQueue) == kCacheLineSize,
              "queue must be line-aligned for the member asserts to hold");

}  // namespace ulipc
