// Free pool of queue nodes in shared memory.
//
// "The interface uses fixed sized messages to permit efficient free-pool
// management." Nodes are identified by 32-bit indices into a contiguous
// array (see ShmIndex in shm/offset_ptr.hpp); links are indices, never
// pointers, so the structure is valid at any mapping address.
//
// The free list is a LIFO protected by a RobustSpinlock. Producers
// allocate, consumers release; both may live in different processes — and
// may die at any instruction. The pool's unit of work is a CHAIN: one
// locked walk pops (allocate_chain) or pushes (release_chain) a whole
// next-linked run, so a batched queue op pays one lock pass per batch, not
// one per node. The scalar allocate()/release() are the chains of one —
// there is exactly one locked body per direction. Crash-safety measures:
//  * every allocated node is stamped with its allocator's pid, so a
//    recovery sweep can tell "in flight on a live process" from "orphaned
//    by a corpse" (see queue/queue_recovery.hpp);
//  * both chain ops are ordered so that at every instruction each node
//    they touch is either on the free list or stamped with the pid of the
//    process moving it (or of a corpse): allocate_chain stamps the nodes
//    while they are still free-listed and only then advances free_head_;
//    release_chain pushes each node onto the free list before it clears
//    the node's stamp. A death inside either op therefore leaves no node
//    that is neither free nor reclaimable — the sweep takes back every
//    node a corpse held, wherever it died;
//  * a stolen free-list lock triggers recount_free_locked(), which repairs
//    free_count_ and clears stale stamps a corpse left on free-listed
//    nodes (the list links themselves stay consistent at every
//    intermediate step). mark_free() runs the same walk, so whoever locks
//    first after a death, every free-listed node carries owner 0 while the
//    lock is held — which is what lets reclaim_dead() re-read a stamp
//    under the lock and never push a node that is already free.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"
#include "explore/hooks.hpp"
#include "queue/message.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

/// One queue node: an intrusive link, the allocator's pid (0 while the
/// node sits on the free list), the message payload, and the causal-trace
/// stamp riding next to it (see SpanStamp in queue/message.hpp — the stamp
/// is per-node metadata precisely so the wire Message stays 24 bytes).
///
/// `next` is the two-lock engine's link AND the free-list link (a node is
/// never in both roles at once). `lf_next` is the lock-free engine's link:
/// a {tag:32, index:32} word CASed without any lock, where the tag bumps on
/// every write — each link publication and each release() — so a stale CAS
/// against a recycled node can never succeed (ABA window = 2^32 writes of
/// one node's link, an accepted caveat documented in DESIGN.md §18). The
/// tag doubles as the node's generation for crash-ownership announcements
/// (see DequeueAnnounce below). Always access lf_next through
/// std::atomic_ref.
struct MsgNode {
  ShmIndex next = kNullIndex;
  std::uint32_t owner_pid = 0;
  std::uint64_t lf_next = 0;
  Message msg;
  SpanStamp span;
};
static_assert(alignof(MsgNode) >= 8 && sizeof(MsgNode) % 8 == 0,
              "lf_next and the word-copied msg/span need 8-byte alignment");

/// Packing helpers for the {tag:32, index:32} words used by lf_next, the
/// lock-free queue's head/tail, and the dequeue announcements.
constexpr std::uint64_t lf_pack(std::uint32_t tag, ShmIndex idx) noexcept {
  return (static_cast<std::uint64_t>(tag) << 32) | idx;
}
constexpr std::uint32_t lf_tag(std::uint64_t w) noexcept {
  return static_cast<std::uint32_t>(w >> 32);
}
constexpr ShmIndex lf_idx(std::uint64_t w) noexcept {
  return static_cast<ShmIndex>(w & 0xFFFFFFFFu);
}

/// Relaxed atomic word copy for node msg/span bytes. The lock-free engine
/// reads a node's payload BEFORE its head CAS validates the read, so that
/// copy can race a recycler refilling the node — and since one pool may
/// feed queues of both engines, EVERY fill of a pool node (either engine)
/// must use word stores too, or the plain store would race the lock-free
/// reader's atomic load. Ordering is never carried here: publication is
/// the engines' release link-store / acquire link-load pair.
inline void lf_copy_words(void* dst, const void* src,
                          std::size_t bytes) noexcept {
  auto* d = static_cast<std::uint64_t*>(dst);
  auto* s = static_cast<std::uint64_t*>(const_cast<void*>(src));
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    std::atomic_ref<std::uint64_t>(d[i]).store(
        std::atomic_ref<std::uint64_t>(s[i]).load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}
static_assert(sizeof(Message) % 8 == 0 && alignof(Message) >= 8,
              "Message must word-copy cleanly");
static_assert(sizeof(SpanStamp) % 8 == 0 && alignof(SpanStamp) >= 8,
              "SpanStamp must word-copy cleanly");

/// One lock-free dequeue announcement slot (see NodePool::announce_*): the
/// claiming thread's pid plus a {lf_next tag, node index} word naming the
/// node it is about to detach with a head CAS. The two-lock engine stamps
/// owner_pid on the old dummy BEFORE advancing head — safe under the head
/// lock, but a data hazard without it (a slow loser's late stamp could land
/// on a node a third process already recycled). Lock-free dequeuers instead
/// publish intent here pre-CAS and the recovery sweep reclaims an announced
/// node only when every announcer of it is dead AND the node's lf_next tag
/// still equals the announced tag (i.e. nobody released it since).
struct DequeueAnnounce {
  std::uint32_t pid = 0;
  std::uint32_t pad = 0;
  std::uint64_t val = 0;  // lf_pack(tag, idx); 0 = no announcement
};

class NodePool {
 public:
  /// Carves a pool of `capacity` nodes out of `arena`; returns the pool,
  /// which lives (header + node array) inside the arena.
  static NodePool* create(ShmArena& arena, std::uint32_t capacity) {
    auto* pool = arena.construct<NodePool>();
    auto* nodes = arena.construct_array<MsgNode>(capacity);
    pool->nodes_.set(nodes);
    pool->capacity_ = capacity;
    // Thread every node onto the free list.
    for (std::uint32_t i = 0; i < capacity; ++i) {
      nodes[i].next = (i + 1 < capacity) ? i + 1 : kNullIndex;
      nodes[i].owner_pid = 0;
      nodes[i].lf_next = lf_pack(0, kNullIndex);
    }
    pool->free_head_ = 0;
    pool->free_count_ = capacity;
    return pool;
  }

  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  /// Pops up to `n` nodes in ONE locked walk; returns how many it got (0
  /// when `n` is 0 or the pool is exhausted). The nodes come out linked
  /// *first -> ... -> *last through `next` (the free list's own order, so
  /// the walk only cuts it), `*last`'s link null, each stamped with the
  /// caller's pid until it is released. Both ends are kNullIndex when 0.
  std::uint32_t allocate_chain(std::uint32_t n, ShmIndex* first,
                               ShmIndex* last) noexcept {
    *first = kNullIndex;
    *last = kNullIndex;
    if (n == 0) return 0;
    const std::uint32_t me = robust_self_pid();
    RobustGuard g(lock_.value);
    if (g.stolen()) recount_free_locked();
    // Stamp while still free-listed, detach with one free_head_ write,
    // then cut (see the header comment's crash ordering).
    const ShmIndex head = free_head_;
    ShmIndex rest = head;  // ends as the first node left on the list
    ShmIndex tail = kNullIndex;
    std::uint32_t got = 0;
    while (got < n && rest != kNullIndex) {
      node(rest).owner_pid = me;
      explore::crash_point(explore::Point::kNodeAllocStamped);
      tail = rest;
      rest = node(rest).next;
      ++got;
    }
    if (got == 0) return 0;
    crash_order();
    free_head_ = rest;
    explore::crash_point(explore::Point::kNodeAllocDetached);
    crash_order();
    node(tail).next = kNullIndex;
    explore::crash_point(explore::Point::kNodeAllocCut);
    free_count_ -= got;
    *first = head;
    *last = tail;
    return got;
  }

  /// Pops one node; returns kNullIndex when the pool is exhausted. The
  /// node is stamped with the caller's pid until release().
  ShmIndex allocate() noexcept {
    ShmIndex first = kNullIndex;
    ShmIndex last = kNullIndex;
    return allocate_chain(1, &first, &last) == 1 ? first : kNullIndex;
  }

  /// Returns the `n` nodes of the run starting at `first` (linked through
  /// `next`; the link out of the n-th node is ignored) in ONE locked walk.
  /// Precondition: every node of the run carries a nonzero owner stamp —
  /// the caller's, or a corpse's — so a death mid-walk leaves the nodes not
  /// yet pushed reclaimable by the sweep. Also retires each node's
  /// lock-free link: the tag bump (under the pool lock, atomically — stale
  /// validated readers may still be loading the word) is what makes every
  /// outstanding CAS expecting the old link fail, and what invalidates any
  /// dequeue announcement naming the node.
  void release_chain(ShmIndex first, std::uint32_t n) noexcept {
    if (n == 0) return;
    RobustGuard g(lock_.value);
    if (g.stolen()) recount_free_locked();
    release_chain_locked(first, n);
  }

  /// Returns one node to the pool (the chain of one; same precondition).
  void release(ShmIndex idx) noexcept { release_chain(idx, 1); }

  [[nodiscard]] MsgNode& node(ShmIndex idx) noexcept {
    return nodes_.get()[idx];
  }
  [[nodiscard]] const MsgNode& node(ShmIndex idx) const noexcept {
    return nodes_.get()[idx];
  }

  /// Atomic view of a node's lock-free link (see MsgNode::lf_next).
  [[nodiscard]] std::atomic_ref<std::uint64_t> lf_next(ShmIndex idx) noexcept {
    return std::atomic_ref<std::uint64_t>(node(idx).lf_next);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Racy snapshot of free node count (diagnostics).
  [[nodiscard]] std::uint32_t free_count() const noexcept {
    return free_count_;
  }

  /// The free-list lock, for recovery tooling and tests.
  [[nodiscard]] RobustSpinlock& lock() noexcept { return lock_.value; }

  // ---- lock-free dequeue announcements ----
  //
  // The lock-free engine's dequeue has a crash window the owner-pid stamp
  // cannot cover: between winning the head CAS and release(), the detached
  // old dummy is reachable from nowhere and its owner_pid is whichever
  // enqueuer brought it (likely alive). A dequeuer therefore announces
  // (node, lf_next tag) BEFORE each CAS attempt and clears the slot only
  // AFTER the release. The sweep reclaims an announced node iff every
  // process announcing it is dead, the node is neither free nor reachable,
  // and its lf_next tag still equals the announced tag — a live loser's
  // stale announcement merely defers the reclaim to a later sweep, and the
  // release-side tag bump makes double-reclaims structurally impossible.
  // Slots are claimed per thread (one live announcement per thread);
  // dead claimants' slots are stolen. On the (never observed) exhaustion
  // of all slots a dequeuer proceeds unannounced: the post-CAS owner stamp
  // in the lock-free engine still covers everything but the single
  // instruction between the CAS and that stamp.

  static constexpr std::uint32_t kAnnounceSlots = 64;

  /// Claims (or re-finds) an announcement slot for the calling thread.
  /// Returns kNoAnnounceSlot when all slots are held by live processes.
  static constexpr int kNoAnnounceSlot = -1;
  int announce_slot() noexcept {
    struct Cache {
      NodePool* pool = nullptr;
      std::uint32_t pid = 0;
      int slot = kNoAnnounceSlot;
    };
    thread_local Cache cache;
    const std::uint32_t me = robust_self_pid();
    if (cache.pool == this && cache.pid == me &&
        cache.slot != kNoAnnounceSlot) {
      return cache.slot;
    }
    for (std::uint32_t s = 0; s < kAnnounceSlots; ++s) {
      std::atomic_ref<std::uint32_t> pid(announce_[s].pid);
      std::uint32_t cur = pid.load(std::memory_order_acquire);
      if (cur == me) {
        // A forked child inherits the parent's cached slot pointer but not
        // its pid; conversely after fork the PARENT's slot shows our pid
        // only if we claimed it ourselves. Either way matching pid = ours.
        cache = {this, me, static_cast<int>(s)};
        return cache.slot;
      }
      if (cur != 0 && process_alive(cur)) continue;
      if (pid.compare_exchange_strong(cur, me, std::memory_order_acq_rel)) {
        // Stolen from a corpse: its stale announcement (if any) must not
        // survive under our name.
        std::atomic_ref<std::uint64_t>(announce_[s].val)
            .store(0, std::memory_order_release);
        cache = {this, me, static_cast<int>(s)};
        return cache.slot;
      }
    }
    return kNoAnnounceSlot;
  }

  void announce_dequeue(int slot, ShmIndex idx, std::uint32_t tag) noexcept {
    if (slot == kNoAnnounceSlot) return;
    std::atomic_ref<std::uint64_t>(announce_[slot].val)
        .store(lf_pack(tag, idx), std::memory_order_release);
  }

  void clear_announce(int slot) noexcept {
    if (slot == kNoAnnounceSlot) return;
    std::atomic_ref<std::uint64_t>(announce_[slot].val)
        .store(0, std::memory_order_release);
  }

  /// Recovery: reclaims nodes announced by dead dequeuers (see the block
  /// comment above). `mark` is the free+reachable set the sweep computed;
  /// a marked node is either still in a queue (the announcer died before
  /// its CAS) or already back on the free list — both untouchable here.
  /// Returns the number reclaimed. Caller serializes sweeps.
  template <typename LivenessFn>
  std::uint32_t reclaim_announced_dead(const std::vector<char>& mark,
                                       LivenessFn&& is_alive) noexcept {
    std::uint32_t reclaimed = 0;
    for (std::uint32_t s = 0; s < kAnnounceSlots; ++s) {
      const std::uint32_t pid =
          std::atomic_ref<std::uint32_t>(announce_[s].pid)
              .load(std::memory_order_acquire);
      if (pid == 0 || is_alive(pid)) continue;
      const std::uint64_t val =
          std::atomic_ref<std::uint64_t>(announce_[s].val)
              .load(std::memory_order_acquire);
      if (val == 0) continue;
      const ShmIndex idx = lf_idx(val);
      if (idx >= capacity_ || mark[idx]) continue;
      // A LIVE announcer of the same node is (or may be) the CAS winner
      // that actually holds the release duty — it just hasn't released
      // yet. Defer; its clear/overwrite or death resolves the next sweep.
      bool live_claim = false;
      for (std::uint32_t t = 0; t < kAnnounceSlots && !live_claim; ++t) {
        if (t == s) continue;
        const std::uint32_t tp =
            std::atomic_ref<std::uint32_t>(announce_[t].pid)
                .load(std::memory_order_acquire);
        if (tp == 0 || !is_alive(tp)) continue;
        const std::uint64_t tv =
            std::atomic_ref<std::uint64_t>(announce_[t].val)
                .load(std::memory_order_acquire);
        live_claim = tv != 0 && lf_idx(tv) == idx;
      }
      if (live_claim) continue;
      {
        RobustGuard g(lock_.value);
        if (g.stolen()) recount_free_locked();
        // Tag revalidation under the pool lock: a release since the
        // announcement bumped the tag (including a reclaim of this same
        // node via another dead announcer's slot earlier this loop).
        if (lf_tag(lf_next(idx).load(std::memory_order_relaxed)) !=
            lf_tag(val)) {
          continue;
        }
        // The corpse may have died before its post-CAS stamp (owner 0 or a
        // live enqueuer's pid): stamp it ours so that our own death inside
        // the release leaves it reclaimable (release_chain's precondition).
        node(idx).owner_pid = robust_self_pid();
        release_chain_locked(idx, 1);
        ++reclaimed;
      }
      // The corpse's slot is spent: free it for live threads to claim.
      std::atomic_ref<std::uint64_t>(announce_[s].val)
          .store(0, std::memory_order_release);
      std::atomic_ref<std::uint32_t>(announce_[s].pid)
          .store(0, std::memory_order_release);
    }
    return reclaimed;
  }

  // ---- recovery primitives (see queue/queue_recovery.hpp) ----

  /// Marks every index currently on the free list in `mark` (which must
  /// have capacity() entries), repairs free_count_ and clears the owner
  /// stamps a corpse left on free-listed nodes — the same walk a stolen
  /// lock triggers, so it holds whether or not the sweep is the first
  /// process to lock after a death inside a chain op.
  void mark_free(std::vector<char>& mark) noexcept {
    RobustGuard g(lock_.value);
    recount_free_locked(&mark);
  }

  /// The sweep's suspects: for every node NOT marked in `mark` (neither
  /// free nor reachable from a queue) whose stamped owner is dead per
  /// `is_alive`, that owner's pid; 0 for every other node.
  template <typename LivenessFn>
  [[nodiscard]] std::vector<std::uint32_t> dead_holders(
      const std::vector<char>& mark, LivenessFn&& is_alive) const {
    std::vector<std::uint32_t> held(capacity_, 0);
    for (ShmIndex i = 0; i < capacity_; ++i) {
      if (mark[i]) continue;
      const std::uint32_t owner = node(i).owner_pid;
      if (owner != 0 && !is_alive(owner)) held[i] = owner;
    }
    return held;
  }

  /// Releases every suspect (see dead_holders) that is unmarked in
  /// `confirm` and, re-read under the pool lock, still carries the stamp it
  /// was suspected under. Returns the number reclaimed. Caller serializes
  /// sweeps.
  ///
  /// A mark is a snapshot: a node unmarked in it may have belonged to a
  /// LIVE holder that linked it into a queue right after and then died —
  /// the node is queued, yet stamped by a corpse. `confirm` must therefore
  /// be a mark (mark_free + every queue's mark_reachable) taken AFTER the
  /// suspects' owners were seen dead: a dead owner links nothing more, so
  /// a suspect still unmarked then is truly off every list.
  ///
  /// The re-read covers the other side of the snapshot: the owner may have
  /// died inside release_chain after linking the node back (free-listed,
  /// stamp not yet cleared), and pushing it again would make it its own
  /// successor. Holding the lock (after the steal's recount) every
  /// free-listed node carries owner 0, so an unchanged dead stamp proves
  /// the node is still off the free list.
  std::uint32_t reclaim_dead(const std::vector<std::uint32_t>& suspects,
                             const std::vector<char>& confirm) noexcept {
    std::uint32_t reclaimed = 0;
    for (ShmIndex i = 0; i < capacity_; ++i) {
      if (suspects[i] == 0 || confirm[i]) continue;
      RobustGuard g(lock_.value);
      if (g.stolen()) recount_free_locked();
      if (node(i).owner_pid != suspects[i]) continue;
      release_chain_locked(i, 1);
      ++reclaimed;
    }
    return reclaimed;
  }

 private:
  /// Keeps the compiler from moving plain stores across this point. The
  /// crash ordering is about which of its stores a SIGKILLed process had
  /// executed — program order; what other processes see mid-op is ordered
  /// by the pool lock. Emits no instruction.
  static void crash_order() noexcept {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }

  /// release_chain() body, pool lock already held. Each node is pushed on
  /// its own — tag bump, link, THEN clear the stamp — so the run is never
  /// partly unstamped and off the free list.
  void release_chain_locked(ShmIndex idx, std::uint32_t n) noexcept {
    for (std::uint32_t k = 0; k < n; ++k) {
      const ShmIndex next = node(idx).next;  // read before the push reuses it
      const std::uint64_t lf = lf_next(idx).load(std::memory_order_relaxed);
      lf_next(idx).store(lf_pack(lf_tag(lf) + 1, kNullIndex),
                         std::memory_order_release);
      explore::crash_point(explore::Point::kNodeReleaseTagged);
      crash_order();
      node(idx).next = free_head_;
      free_head_ = idx;
      explore::crash_point(explore::Point::kNodeReleaseLinked);
      crash_order();
      node(idx).owner_pid = 0;
      idx = next;
    }
    explore::crash_point(explore::Point::kNodeReleaseSpliced);
    free_count_ += n;
  }

  /// Walks the free list under the (already held) lock, resets
  /// free_count_ and clears the owner stamps a corpse left on free-listed
  /// nodes — the only damage a death inside the chain ops can leave here.
  /// Also marks each free-listed index in `*mark` when given (mark_free).
  void recount_free_locked(std::vector<char>* mark = nullptr) noexcept {
    std::uint32_t count = 0;
    for (ShmIndex i = free_head_;
         i != kNullIndex && count < capacity_; i = node(i).next) {
      if (mark != nullptr) (*mark)[i] = 1;
      node(i).owner_pid = 0;
      ++count;
    }
    free_count_ = count;
  }

  CacheAligned<RobustSpinlock> lock_;
  ShmIndex free_head_ = kNullIndex;
  std::uint32_t free_count_ = 0;
  std::uint32_t capacity_ = 0;
  OffsetPtr<MsgNode> nodes_;
  alignas(kCacheLineSize) DequeueAnnounce announce_[kAnnounceSlots] = {};
};

}  // namespace ulipc
