// Recovery sweep: reclaim queue nodes and payload slots orphaned by dead
// processes.
//
// A process can die (SIGKILL, crash) at any instruction while holding
// resources that live in shared memory:
//   * a queue node it allocated but had not yet linked into a queue
//     (enqueue), or had just unlinked but not yet released (dequeue);
//   * a payload slot referenced by a message it never managed to send.
// Locks heal locally (RobustSpinlock steal + per-structure repair), but
// orphaned *nodes* are invisible to any single critical section — finding
// them requires a global view. sweep_leaked_nodes() builds that view:
//
//   1. mark every node on the pool's free list          (pool.mark_free)
//   2. mark every node reachable from each queue        (q->mark_reachable,
//      which also repairs a lagging tail and reseats the size counter)
//   3. a node that is neither free nor reachable is leaked iff its stamped
//      owner is dead — a LIVE owner may be microseconds from linking it in.
//      The mark is a snapshot, though: an owner alive during it may link
//      the node and die right after. So the suspects (unmarked, dead owner)
//      are released only if a SECOND mark, taken after their owners were
//      seen dead, still finds them neither free nor reachable.
// Payload slots get the same treatment, with "reachable" meaning
// "referenced by the ext_offset of a message still pending in a queue or a
// reply ring"; delivered payloads are guarded by their holder's owner-pid
// stamp. Reply rings hold no nodes: the node passes never look at them.
//
// Concurrency: steps run under the structures' own locks, so the sweep is
// safe against live producers/consumers (a ring is walked under its
// producer lock). But two concurrent sweeps could double-release the same
// leaked node — callers must serialize sweeps (the channel runs them under
// its recovery lock).
#pragma once

#include <cstdint>
#include <vector>

#include "explore/hooks.hpp"
#include "queue/msg_queue.hpp"
#include "queue/msg_pool.hpp"
#include "queue/payload_pool.hpp"
#include "queue/spsc_ring.hpp"
#include "shm/robust_spinlock.hpp"

namespace ulipc {

struct RecoveryStats {
  std::uint32_t nodes_reclaimed = 0;    // leaked queue nodes returned
  std::uint32_t payloads_reclaimed = 0; // leaked payload slots returned
};

/// Sweeps `pool` (and optionally `payloads`) for nodes/slots leaked by dead
/// processes. `queues` must list EVERY queue drawing from `pool` — a queue
/// left out would have its in-flight nodes misread as leaks — and `rings`
/// every ring whose pending messages may carry payload tokens (null entries
/// are skipped). `is_alive` is a liveness oracle (pid -> bool); tests
/// inject failures through it. Callers must serialize sweeps against each
/// other.
template <typename LivenessFn>
RecoveryStats sweep_leaked_nodes(NodePool& pool,
                                 const std::vector<MsgQueue*>& queues,
                                 PayloadPool* payloads,
                                 const std::vector<SpscRing*>& rings,
                                 LivenessFn&& is_alive) {
  RecoveryStats stats;
  explore::point(explore::Point::kSweepBegin);

  const auto mark_nodes = [&] {
    std::vector<char> mark(pool.capacity(), 0);
    pool.mark_free(mark);
    for (MsgQueue* q : queues) q->mark_reachable(mark);
    return mark;
  };
  const std::vector<char> node_mark = mark_nodes();
  explore::point(explore::Point::kSweepMarked);

  if (payloads != nullptr) {
    std::vector<char> slot_mark(payloads->capacity(), 0);
    payloads->mark_free(slot_mark);
    // A payload is in play iff it is free-listed or referenced by a message
    // still PENDING in some queue or ring (a dead sender's in-flight request
    // will be served; its slot must survive until the reply is consumed,
    // and the reply message re-pins it — a reply from a dead worker, too,
    // may wait in a live client's ring). Delivered messages — queue dummies,
    // free-listed nodes and consumed ring slots retain stale copies of
    // those — must NOT pin: the live holder of a delivered payload is
    // protected by the owner stamp (loan/adopt), and a dead holder's slot
    // has to be reclaimable, or every drained queue would leak its last
    // messages' slots forever.
    const auto pin = [&](const Message& m) {
      if (m.ext_offset != PayloadPool::kNoPayload &&
          payloads->owns_token(m.ext_offset)) {
        slot_mark[payloads->index_of_token(m.ext_offset)] = 1;
      }
    };
    for (MsgQueue* q : queues) q->for_each_pending(pin);
    for (SpscRing* r : rings) {
      if (r == nullptr) continue;
      RobustGuard producers(r->producer_lock());
      r->for_each_pending(pin);
    }
    stats.payloads_reclaimed =
        payloads->reclaim_unmarked_dead(slot_mark, is_alive);
  }

  // Lock-free dequeue announcements first: a dequeuer that died between
  // its winning head CAS and release() published the node here pre-CAS
  // (see NodePool::announce_dequeue). Reclaiming announced nodes releases
  // them (owner := 0), so the owner-stamp pass below cannot double-release
  // the same node.
  stats.nodes_reclaimed += pool.reclaim_announced_dead(node_mark, is_alive);
  const std::vector<std::uint32_t> suspects =
      pool.dead_holders(node_mark, is_alive);
  bool any_suspect = false;
  for (const std::uint32_t pid : suspects) any_suspect |= pid != 0;
  if (any_suspect) {
    stats.nodes_reclaimed += pool.reclaim_dead(suspects, mark_nodes());
  }
  explore::point(explore::Point::kSweepDone);
  return stats;
}

/// Convenience overload probing real process liveness via kill(pid, 0).
inline RecoveryStats sweep_leaked_nodes(
    NodePool& pool, const std::vector<MsgQueue*>& queues,
    PayloadPool* payloads = nullptr,
    const std::vector<SpscRing*>& rings = {}) {
  return sweep_leaked_nodes(pool, queues, payloads, rings,
                            [](std::uint32_t pid) {
                              return process_alive(pid);
                            });
}

}  // namespace ulipc
