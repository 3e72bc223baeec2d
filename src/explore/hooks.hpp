// Schedule/crash-point injection markers for the native protocol stack.
//
// Marker-bearing headers (queue/, protocols/detail.hpp, runtime/) call
// explore::point(id) at each interesting ordering point: lock acquisition,
// link/index publication, the C.1-C.5 sleep/wake steps, and the pool
// recovery sequence. Real OS waits are bracketed with about_to_block() /
// resumed() so a scheduler knows the thread holds no "floor" while blocked.
//
// Two builds of this header exist:
//   * ULIPC_EXPLORE_ENABLED defined (the ulipc_runtime_explore flavor and
//     the explore test suite): point() dispatches to a thread-local
//     ThreadHook installed by explore::Controller, and checks a
//     process-global crash trigger first so a forked victim can SIGKILL
//     itself at the nth hit of a chosen marker with no controller at all.
//   * undefined (every default target): everything here is a constexpr
//     no-op, static_assert'd as such, so the hot paths compile
//     byte-identical to a build without the markers.
//
// ODR note: because the markers live in inline template code, a single
// binary must NOT mix translation units with and without
// ULIPC_EXPLORE_ENABLED. The build enforces this by giving explore tests
// their own ulipc_runtime_explore archive and keeping the define PUBLIC.
#pragma once

#include <cstdint>

#ifdef ULIPC_EXPLORE_ENABLED
#include <atomic>
#include <csignal>
#include <unistd.h>
#endif

namespace ulipc::explore {

/// Every injection point in the native stack. Names group by layer:
/// kQ* = TwoLockQueue, kRing* = SpscRing, kProt* = detail.hpp C.1-C.5 and
/// the producer enqueue/wake edge, kSweep* = queue_recovery.hpp,
/// kPool* = server_pool.hpp reap ordering, kNode* = msg_pool.hpp chain ops.
enum class Point : std::int32_t {
  kNone = 0,
  // TwoLockQueue
  kQEnqueueNodeReady,  // node filled, not yet linked
  kQEnqueueLinked,     // next-pointer published, tail not yet swung
  kQEnqueueDone,       // tail lock released
  kQDequeueLocked,     // head lock held, head not yet advanced
  kQDequeueAdvanced,   // head advanced, old head not yet released
  kQDequeueDone,       // head lock released, node back in pool
  // SpscRing
  kRingEnqueueSlot,       // slot written, head index not yet published
  kRingEnqueuePublished,  // head index stored (consumer can see it)
  kRingDequeueCopy,       // slot copied out, tail index not yet published
  kRingDequeuePublished,  // tail index stored (producer can reuse slot)
  // Protocol (detail.hpp): producer edge then consumer C.1-C.5
  kProtEnqueued,     // message visible in queue, awake flag not yet tested
  kProtPreWake,      // tas(awake) returned 0: committed to V, not yet sent
  kProtWakeDone,     // V delivered
  kProtFullSleep,    // producer found the queue full, about to back off
  kProtDeqEmpty,     // C.1 found nothing
  kProtCleared,      // C.2 cleared the awake flag
  kProtRecheckEmpty, // C.3 still empty: committed to sleeping
  kProtRecheckHit,   // C.3 found a message: awake flag restored
  kProtSleep,        // C.4 about to block in P()
  kProtWoke,         // C.4 returned via a token
  kProtTimedOut,     // C.4 returned via deadline expiry
  kProtAbsorb,       // timeout path: producer's token detected, absorbing
  kProtSetAwake,     // C.5 flag restored
  // Recovery sweep (queue_recovery.hpp)
  kSweepBegin,
  kSweepMarked,  // reachable set computed, reclaim not yet run
  kSweepDone,
  // Pool reap ordering (server_pool.hpp)
  kPoolRetired,   // shard marked retired
  kPoolReplaced,  // dead shard's clients re-placed
  kPoolDrained,   // orphaned backlog drained + served
  kPoolSwept,     // leaked nodes swept
  kPoolVacated,   // worker seat cleared
  // Payload plane (queue/payload_pool.hpp loan/publish/release)
  kPayloadLoaned,         // slot popped + pid-stamped, lock released
  kPayloadPublished,      // used_bytes recorded, token not yet sent
  kPayloadReleasing,      // class lock held, slot not yet on free list
  kPayloadReleaseLinked,  // free_head committed, owner stamp not yet cleared
  kPayloadReleased,       // class lock released
  // Readiness plane (runtime/doorbell.hpp ring + runtime/waitset.cpp
  // aggregate C.1-C.5). The ring markers fire only when the doorbell is
  // armed, so suites that never build a WaitSet see unchanged traces.
  kWsRung,          // doorbell generation bumped, armed waiter not yet woken
  kWsRingWakeDone,  // futex wake on the doorbell delivered
  kWsArm,           // member doorbell armed + awake cleared (aggregate C.2)
  kWsRecheckEmpty,  // post-arm recheck found no ready member (aggregate C.3)
  kWsRecheckHit,    // post-arm recheck surfaced a ready member
  kWsAbsorb,        // claiming a ready member: absorbing the banked token
  kWsBlock,         // about to block in the aggregate wait (C.4 analog)
  kWsUngate,        // aggregate wait returned via a doorbell
  kWsTimedOut,      // aggregate wait returned via deadline expiry
  kWsSpurious,      // ungated but no member ready (stale doorbell)
  // Node pool chain ops (queue/msg_pool.hpp). Crash-only markers: they sit
  // inside the pool lock every scheduled thread contends, so they fire an
  // armed crash but never park a thread (see crash_point()).
  kNodeAllocStamped,    // one more node owner-stamped, still free-listed
  kNodeAllocDetached,   // free_head_ past the chain, its tail link uncut
  kNodeAllocCut,        // chain cut, free_count_ not yet updated
  kNodeReleaseTagged,   // lf_next tag bumped, node not yet free-listed
  kNodeReleaseLinked,   // node is free_head_, owner stamp not yet cleared
  kNodeReleaseSpliced,  // whole run free-listed, free_count_ not yet updated
  kCount,
};

constexpr const char* point_name(Point p) noexcept {
  switch (p) {
    case Point::kNone: return "none";
    case Point::kQEnqueueNodeReady: return "q_enqueue_node_ready";
    case Point::kQEnqueueLinked: return "q_enqueue_linked";
    case Point::kQEnqueueDone: return "q_enqueue_done";
    case Point::kQDequeueLocked: return "q_dequeue_locked";
    case Point::kQDequeueAdvanced: return "q_dequeue_advanced";
    case Point::kQDequeueDone: return "q_dequeue_done";
    case Point::kRingEnqueueSlot: return "ring_enqueue_slot";
    case Point::kRingEnqueuePublished: return "ring_enqueue_published";
    case Point::kRingDequeueCopy: return "ring_dequeue_copy";
    case Point::kRingDequeuePublished: return "ring_dequeue_published";
    case Point::kProtEnqueued: return "prot_enqueued";
    case Point::kProtPreWake: return "prot_pre_wake";
    case Point::kProtWakeDone: return "prot_wake_done";
    case Point::kProtFullSleep: return "prot_full_sleep";
    case Point::kProtDeqEmpty: return "prot_deq_empty";
    case Point::kProtCleared: return "prot_cleared";
    case Point::kProtRecheckEmpty: return "prot_recheck_empty";
    case Point::kProtRecheckHit: return "prot_recheck_hit";
    case Point::kProtSleep: return "prot_sleep";
    case Point::kProtWoke: return "prot_woke";
    case Point::kProtTimedOut: return "prot_timed_out";
    case Point::kProtAbsorb: return "prot_absorb";
    case Point::kProtSetAwake: return "prot_set_awake";
    case Point::kSweepBegin: return "sweep_begin";
    case Point::kSweepMarked: return "sweep_marked";
    case Point::kSweepDone: return "sweep_done";
    case Point::kPoolRetired: return "pool_retired";
    case Point::kPoolReplaced: return "pool_replaced";
    case Point::kPoolDrained: return "pool_drained";
    case Point::kPoolSwept: return "pool_swept";
    case Point::kPoolVacated: return "pool_vacated";
    case Point::kPayloadLoaned: return "payload_loaned";
    case Point::kPayloadPublished: return "payload_published";
    case Point::kPayloadReleasing: return "payload_releasing";
    case Point::kPayloadReleaseLinked: return "payload_release_linked";
    case Point::kPayloadReleased: return "payload_released";
    case Point::kWsRung: return "ws_rung";
    case Point::kWsRingWakeDone: return "ws_ring_wake_done";
    case Point::kWsArm: return "ws_arm";
    case Point::kWsRecheckEmpty: return "ws_recheck_empty";
    case Point::kWsRecheckHit: return "ws_recheck_hit";
    case Point::kWsAbsorb: return "ws_absorb";
    case Point::kWsBlock: return "ws_block";
    case Point::kWsUngate: return "ws_ungate";
    case Point::kWsTimedOut: return "ws_timed_out";
    case Point::kWsSpurious: return "ws_spurious";
    case Point::kNodeAllocStamped: return "node_alloc_stamped";
    case Point::kNodeAllocDetached: return "node_alloc_detached";
    case Point::kNodeAllocCut: return "node_alloc_cut";
    case Point::kNodeReleaseTagged: return "node_release_tagged";
    case Point::kNodeReleaseLinked: return "node_release_linked";
    case Point::kNodeReleaseSpliced: return "node_release_spliced";
    case Point::kCount: return "count";
  }
  return "?";
}

#ifdef ULIPC_EXPLORE_ENABLED

constexpr bool compiled_in() noexcept { return true; }

/// Per-thread marker sink. The Controller installs one per participating
/// thread; threads with no hook installed (the test main thread, helper
/// threads) pass straight through every marker.
class ThreadHook {
 public:
  virtual ~ThreadHook() = default;
  /// Called at every explore::point(). May park the calling thread.
  virtual void on_point(Point p) = 0;
  /// Called just before a real OS wait (sem P, futex wait, full-queue
  /// sleep). The hook must not park here: the thread is about to park
  /// itself in the kernel, and the floor must be released instead.
  virtual void on_block(Point p) = 0;
  /// Called right after the OS wait returns. May park to re-take the floor.
  virtual void on_resume() = 0;
};

namespace internal {

inline thread_local ThreadHook* t_hook = nullptr;

/// Process-global crash trigger, independent of any controller so a forked
/// victim inherits it armed. The countdown picks the nth dynamic hit of
/// the armed point.
struct CrashArm {
  std::atomic<std::int32_t> point{-1};
  std::atomic<std::uint32_t> countdown{0};
};

inline CrashArm g_crash;

inline void maybe_crash(Point p) noexcept {
  if (g_crash.point.load(std::memory_order_relaxed) !=
      static_cast<std::int32_t>(p)) {
    return;
  }
  if (g_crash.countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
    ::kill(::getpid(), SIGKILL);
  }
}

}  // namespace internal

/// Arm the process to SIGKILL itself at the `nth` dynamic hit of `p`.
/// Call in the (forked) victim before entering the code under test.
inline void arm_crash(Point p, std::uint32_t nth = 1) noexcept {
  internal::g_crash.countdown.store(nth, std::memory_order_relaxed);
  internal::g_crash.point.store(static_cast<std::int32_t>(p),
                                std::memory_order_relaxed);
}

inline void disarm_crash() noexcept {
  internal::g_crash.point.store(-1, std::memory_order_relaxed);
}

inline void set_thread_hook(ThreadHook* h) noexcept { internal::t_hook = h; }
inline ThreadHook* thread_hook() noexcept { return internal::t_hook; }

inline void point(Point p) noexcept {
  internal::maybe_crash(p);
  if (internal::t_hook != nullptr) internal::t_hook->on_point(p);
}

/// A marker that only honours an armed crash trigger and never reaches the
/// thread hook. For points inside a lock that every scheduled thread
/// contends (the node pool's free-list lock): parking there would livelock
/// the controller (see controller.hpp's known constraint).
inline void crash_point(Point p) noexcept { internal::maybe_crash(p); }

inline void about_to_block(Point p) noexcept {
  internal::maybe_crash(p);
  if (internal::t_hook != nullptr) internal::t_hook->on_block(p);
}

inline void resumed() noexcept {
  if (internal::t_hook != nullptr) internal::t_hook->on_resume();
}

#else  // !ULIPC_EXPLORE_ENABLED

constexpr bool compiled_in() noexcept { return false; }

constexpr void point(Point) noexcept {}
constexpr void crash_point(Point) noexcept {}
constexpr void about_to_block(Point) noexcept {}
constexpr void resumed() noexcept {}

// The markers must be constant-expression no-ops in default builds: any
// accidental side effect (and therefore any codegen) fails to compile here.
static_assert((point(Point::kNone), crash_point(Point::kNone),
               about_to_block(Point::kNone), resumed(), true),
              "explore markers must be no-ops in uninstrumented builds");

#endif  // ULIPC_EXPLORE_ENABLED

}  // namespace ulipc::explore
