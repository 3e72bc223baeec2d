// Single-producer / single-consumer ring buffer (Lamport queue): every
// client reply endpoint is one of these and nothing else.
//
// The ring itself is strictly SPSC: one atomic index per side, each side's
// fields written by one party at a time. A reply endpoint, though, can have
// more than one producer — on a pool channel the shard owner, an idle
// worker that stole the request, or a reaper serving a dead worker's
// backlog all answer the same client. They share the ring through
// producer_lock(), one RobustSpinlock every producer holds across its
// enqueue. The lock is producers-only: the consumer never takes it. On a
// single-server channel it is never contended and stays in the server's
// cache. A full ring is the endpoint's queue-full condition, handled by the
// protocols' flow control like any other full queue.
//
// A producer SIGKILLed while holding the lock needs no repair: before its
// head publish it leaves at most a written but unpublished slot, which the
// next holder (who steals the lock) simply overwrites; after it, the
// message is published and complete.
//
// Also used on its own by the queue micro-benches, to price the node
// queues against the cheapest possible correct queue.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "common/error.hpp"
#include "explore/hooks.hpp"
#include "queue/message.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

class SpscRing {
 public:
  /// One ring slot: the wire message plus its causal-trace stamp (see
  /// SpanStamp in queue/message.hpp). The stamp is written on every
  /// enqueue — zeroed when untraced — so a lapped slot never replays a
  /// stale span id.
  struct Slot {
    Message msg;
    SpanStamp span;
  };

  /// Builds a ring with `capacity` slots (rounded up to a power of two) in
  /// `arena`.
  static SpscRing* create(ShmArena& arena, std::uint32_t capacity) {
    std::uint32_t cap = 1;
    while (cap < capacity) cap <<= 1;
    auto* ring = arena.construct<SpscRing>();
    auto* slots = arena.construct_array<Slot>(cap);
    ring->slots_.set(slots);
    ring->mask_ = cap - 1;
    return ring;
  }

  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full. `stamp` is stored next to the
  /// message (default: untraced).
  bool enqueue(const Message& msg, SpanStamp stamp = {}) noexcept {
    const std::uint32_t head = head_.load(std::memory_order_relaxed);
    const std::uint32_t tail = tail_cache_;
    if (head - tail > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_.get()[head & mask_] = Slot{msg, stamp};
    explore::point(explore::Point::kRingEnqueueSlot);
    head_.store(head + 1, std::memory_order_release);
    explore::point(explore::Point::kRingEnqueuePublished);
    return true;
  }

  /// Producer side, batched: appends up to `n` messages with ONE index
  /// publication. Returns how many fit (0 when full). A batch carries at
  /// most one stamp, on its first message — span fidelity degrades to
  /// one-sample-per-batch on batched paths, which the span assembler
  /// tolerates as partial spans.
  std::uint32_t enqueue_batch(const Message* msgs, std::uint32_t n,
                              SpanStamp stamp = {}) noexcept {
    if (n == 0) return 0;
    const std::uint32_t head = head_.load(std::memory_order_relaxed);
    std::uint32_t free = mask_ + 1 - (head - tail_cache_);
    if (free < n) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free = mask_ + 1 - (head - tail_cache_);
      if (free == 0) return 0;
    }
    const std::uint32_t k = std::min(n, free);
    Slot* slots = slots_.get();
    for (std::uint32_t i = 0; i < k; ++i) {
      slots[(head + i) & mask_] = Slot{msgs[i], i == 0 ? stamp : SpanStamp{}};
    }
    explore::point(explore::Point::kRingEnqueueSlot);
    head_.store(head + k, std::memory_order_release);
    explore::point(explore::Point::kRingEnqueuePublished);
    return k;
  }

  /// Consumer side. Returns false when empty. When `stamp` is non-null it
  /// receives the slot's span stamp (id 0 = untraced).
  bool dequeue(Message* out, SpanStamp* stamp = nullptr) noexcept {
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    const Slot& s = slots_.get()[tail & mask_];
    *out = s.msg;
    if (stamp != nullptr) *stamp = s.span;
    explore::point(explore::Point::kRingDequeueCopy);
    tail_.store(tail + 1, std::memory_order_release);
    explore::point(explore::Point::kRingDequeuePublished);
    return true;
  }

  /// Consumer side, batched: removes up to `max` messages with ONE index
  /// publication. Returns how many were taken (0 when empty). May return
  /// fewer than are queued: the producer index is re-read only when the
  /// cached copy says empty, so a stale cache bounds the batch — callers
  /// wanting more simply call again. When `stamp` is non-null it receives
  /// the LAST traced stamp in the batch (id 0 if none was traced).
  std::uint32_t dequeue_batch(Message* out, std::uint32_t max,
                              SpanStamp* stamp = nullptr) noexcept {
    if (max == 0) return 0;
    const std::uint32_t tail = tail_.load(std::memory_order_relaxed);
    std::uint32_t avail = head_cache_ - tail;
    if (avail == 0) {
      head_cache_ = head_.load(std::memory_order_acquire);
      avail = head_cache_ - tail;
      if (avail == 0) return 0;
    }
    const std::uint32_t k = std::min(max, avail);
    const Slot* slots = slots_.get();
    if (stamp != nullptr) *stamp = SpanStamp{};
    for (std::uint32_t i = 0; i < k; ++i) {
      const Slot& s = slots[(tail + i) & mask_];
      out[i] = s.msg;
      if (stamp != nullptr && s.span.traced()) *stamp = s.span;
    }
    explore::point(explore::Point::kRingDequeueCopy);
    tail_.store(tail + k, std::memory_order_release);
    explore::point(explore::Point::kRingDequeuePublished);
    return k;
  }

  [[nodiscard]] bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return mask_ + 1; }

  /// Recovery only: discards every queued message and resets both per-side
  /// index caches. Requires BOTH sides quiesced — it writes fields normally
  /// owned by each: the consumer dead or stopped, and no producer inside an
  /// enqueue (on a shared ring, hold producer_lock()). Returns the number
  /// of messages discarded.
  std::uint32_t drain() noexcept {
    const std::uint32_t head = head_.load(std::memory_order_acquire);
    const std::uint32_t tail = tail_.load(std::memory_order_acquire);
    tail_.store(head, std::memory_order_release);
    head_cache_ = head;
    tail_cache_ = head;
    return head - tail;
  }

  /// Visits every message published and not yet consumed, oldest first
  /// (the recovery sweep pins their payload slots). Hold producer_lock():
  /// no producer can then rewrite a slot in [tail, head). A consumer racing
  /// the walk only makes it visit an already-taken message, which pins a
  /// slot for one sweep and never unpins one.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const noexcept {
    // Tail first: it never passes the head read after it.
    const std::uint32_t tail = tail_.load(std::memory_order_acquire);
    const std::uint32_t head = head_.load(std::memory_order_acquire);
    const Slot* slots = slots_.get();
    for (std::uint32_t i = tail; i != head; ++i) fn(slots[i & mask_].msg);
  }

  /// Serializes the ring's producers (see the file comment). Uncontended
  /// on single-producer endpoints. Besides the producers, only recovery
  /// code that drains or walks the ring on a live channel takes it.
  [[nodiscard]] RobustSpinlock& producer_lock() noexcept {
    return producer_lock_;
  }

  /// TEST ONLY: repositions both indices of an EMPTY, quiesced ring to
  /// `base`, so tests can exercise behaviour as the 32-bit indices approach
  /// and cross the unsigned wrap.
  void skew_indices_for_test(std::uint32_t base) {
    ULIPC_INVARIANT(empty(), "skew_indices_for_test requires an empty ring");
    head_.store(base, std::memory_order_release);
    tail_.store(base, std::memory_order_release);
    head_cache_ = base;
    tail_cache_ = base;
  }

 private:
  // Producer line: head index + consumer-index cache.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> head_{0};
  std::uint32_t tail_cache_ = 0;

  // Consumer line: tail index + producer-index cache.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> tail_{0};
  std::uint32_t head_cache_ = 0;

  alignas(kCacheLineSize) std::uint32_t mask_ = 0;
  OffsetPtr<Slot> slots_;

  RobustSpinlock producer_lock_;  // cache-line aligned: its own line
};

}  // namespace ulipc
