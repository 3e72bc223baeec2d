// MsgQueue: the dispatching facade over the two node-queue engines. A
// channel's receive endpoints hold an OffsetPtr<MsgQueue> when the
// topology's QueueEnginePolicy picks a node engine (queue/queue_engine.hpp)
// and a ring otherwise.
//
// Shared memory forbids vtables (a vptr is an absolute address valid in
// one mapping only), so dispatch is a stored engine tag plus a switch over
// a union of the concrete engines — placement-new'd into place and
// two-phase init'd. Both engines are trivially destructible arena objects;
// the union members' lifetimes end with the mapping, like every other shm
// structure here.
//
// The dispatch surface is exactly the Queue concept the protocol stack and
// the recovery sweep already consumed from TwoLockQueue; engine-specific
// surfaces (the two-lock engine's head_lock()/tail_lock()) are reachable
// through the checked downcast accessors for tests that need them.
#pragma once

#include <cstdint>
#include <new>
#include <vector>

#include "common/cacheline.hpp"
#include "common/error.hpp"
#include "queue/lockfree_queue.hpp"
#include "queue/message.hpp"
#include "queue/ms_two_lock_queue.hpp"
#include "queue/msg_pool.hpp"
#include "queue/queue_engine.hpp"
#include "shm/shm_allocator.hpp"

namespace ulipc {

class MsgQueue {
 public:
  /// Builds a queue of the requested node engine in `arena` (kRing is not
  /// one: a ring is an SpscRing). Same contract as the engines' own
  /// create(): nodes from `pool`, `capacity` 0 = bounded only by pool
  /// exhaustion.
  static MsgQueue* create(ShmArena& arena, NodePool* pool,
                          std::uint32_t capacity = 0,
                          QueueEngine engine = QueueEngine::kTwoLock) {
    ULIPC_INVARIANT(engine != QueueEngine::kRing,
                    "a ring is not a node queue: use SpscRing");
    auto* q = arena.construct<MsgQueue>();
    q->engine_ = static_cast<std::uint32_t>(engine);
    switch (engine) {
      case QueueEngine::kTwoLock:
        new (&q->impl_.two_lock) TwoLockQueue();
        q->impl_.two_lock.init(pool, capacity);
        break;
      case QueueEngine::kLockFree:
        new (&q->impl_.lock_free) LockFreeQueue();
        q->impl_.lock_free.init(pool, capacity);
        break;
      case QueueEngine::kRing:
        break;
    }
    return q;
  }

  MsgQueue() = default;
  MsgQueue(const MsgQueue&) = delete;
  MsgQueue& operator=(const MsgQueue&) = delete;

  [[nodiscard]] QueueEngine engine() const noexcept {
    return static_cast<QueueEngine>(engine_);
  }

  bool enqueue(const Message& msg, SpanStamp stamp = {}) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.enqueue(msg, stamp);
    }
    return impl_.two_lock.enqueue(msg, stamp);
  }

  std::uint32_t enqueue_batch(const Message* msgs, std::uint32_t n,
                              SpanStamp stamp = {}) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.enqueue_batch(msgs, n, stamp);
    }
    return impl_.two_lock.enqueue_batch(msgs, n, stamp);
  }

  bool dequeue(Message* out, SpanStamp* stamp = nullptr) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.dequeue(out, stamp);
    }
    return impl_.two_lock.dequeue(out, stamp);
  }

  std::uint32_t dequeue_batch(Message* out, std::uint32_t max,
                              SpanStamp* stamp = nullptr) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.dequeue_batch(out, max, stamp);
    }
    return impl_.two_lock.dequeue_batch(out, max, stamp);
  }

  [[nodiscard]] bool empty() const noexcept {
    if (engine() == QueueEngine::kLockFree) return impl_.lock_free.empty();
    return impl_.two_lock.empty();
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    if (engine() == QueueEngine::kLockFree) return impl_.lock_free.size();
    return impl_.two_lock.size();
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    if (engine() == QueueEngine::kLockFree) return impl_.lock_free.capacity();
    return impl_.two_lock.capacity();
  }

  // ---- recovery interface (see queue/queue_recovery.hpp) ----

  std::uint32_t mark_reachable(std::vector<char>& mark) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.mark_reachable(mark);
    }
    return impl_.two_lock.mark_reachable(mark);
  }

  template <typename Fn>
  void for_each_pending(Fn&& fn) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      impl_.lock_free.for_each_pending(static_cast<Fn&&>(fn));
      return;
    }
    impl_.two_lock.for_each_pending(static_cast<Fn&&>(fn));
  }

  std::uint32_t drain() noexcept {
    if (engine() == QueueEngine::kLockFree) return impl_.lock_free.drain();
    return impl_.two_lock.drain();
  }

  /// TEST ONLY — see the engines' crash_mid_enqueue_for_test.
  ShmIndex crash_mid_enqueue_for_test(const Message& msg) noexcept {
    if (engine() == QueueEngine::kLockFree) {
      return impl_.lock_free.crash_mid_enqueue_for_test(msg);
    }
    return impl_.two_lock.crash_mid_enqueue_for_test(msg);
  }

  // ---- engine-specific escape hatches (tests, invariant checkers) ----

  [[nodiscard]] TwoLockQueue& two_lock() {
    ULIPC_INVARIANT(engine() == QueueEngine::kTwoLock, "engine mismatch");
    return impl_.two_lock;
  }
  [[nodiscard]] LockFreeQueue& lock_free() {
    ULIPC_INVARIANT(engine() == QueueEngine::kLockFree, "engine mismatch");
    return impl_.lock_free;
  }

 private:
  union Impl {
    // The facade constructs exactly one member via placement new; an empty
    // ctor/dtor pair keeps the union itself trivially constructible.
    Impl() {}   // NOLINT(modernize-use-equals-default)
    ~Impl() {}  // NOLINT(modernize-use-equals-default)
    TwoLockQueue two_lock;
    LockFreeQueue lock_free;
  };

  // The tag gets its own line so probes of it never false-share with the
  // engines' hot head/tail lines (both engines line-align their members).
  alignas(kCacheLineSize) std::uint32_t engine_ =
      static_cast<std::uint32_t>(QueueEngine::kTwoLock);
  Impl impl_;

  static_assert(alignof(TwoLockQueue) == kCacheLineSize &&
                    alignof(LockFreeQueue) == kCacheLineSize,
                "union keeps the engines' line alignment");
};

static_assert(alignof(MsgQueue) == kCacheLineSize,
              "facade must preserve engine alignment guarantees");

}  // namespace ulipc
