// Shared-state invariant checker for crash-point exploration.
//
// After a victim process is SIGKILLed at a marker and the PR-1/PR-4
// recovery machinery has run, the shared region must be back in a sane
// quiescent state. check_invariants() verifies, over the whole region:
//   * node conservation — every pool node is exactly one of {free-listed,
//     queue-reachable}; a node that is neither leaked, one that is both
//     indicates a corrupted link;
//   * queue link integrity — mark_reachable() walks head->tail under both
//     locks, so a cycle or a dangling next pointer surfaces here;
//   * payload conservation (free XOR loaned) — every payload slot is
//     exactly one of {free-listed, loaned to a live process}; a non-free
//     slot with no owner is an unreclaimable leak, one owned by a dead
//     pid is a leak the sweep should have taken back;
//   * sleep/wake consistency per endpoint (futex semaphores), over its
//     queue or, on a client reply endpoint, its ring: a non-empty
//     endpoint with the awake flag clear and zero tokens is a lost wake-up
//     (the consumer would sleep forever); an all-quiet endpoint with
//     tokens banked is a stale token (the next sleeper wakes spuriously).
//
// The checker only reads/repairs via the same primitives the recovery
// sweep uses; it never calls explore markers itself, so it is usable from
// both gated and ungated code. The wake checks assume the endpoints are
// QUIESCENT (no live producer/consumer mid-protocol) — call it after
// joining every worker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "queue/msg_pool.hpp"
#include "queue/msg_queue.hpp"
#include "queue/payload_pool.hpp"
#include "runtime/native_platform.hpp"

namespace ulipc::explore {

struct InvariantReport {
  std::vector<std::string> violations;
  std::uint32_t free_nodes = 0;
  std::uint32_t queued_nodes = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  [[nodiscard]] std::string to_string() const {
    if (violations.empty()) return "ok";
    std::string s;
    for (const std::string& v : violations) {
      if (!s.empty()) s += "; ";
      s += v;
    }
    return s;
  }
};

/// Checks pool/queue/payload conservation and per-endpoint sleep/wake
/// consistency. `queues` must list EVERY queue drawing from `pool`
/// (exactly like sweep_leaked_nodes); `payloads` and `endpoints` may be
/// empty. Endpoints are checked against their futex semaphore — the SysV
/// configuration banks tokens in the kernel where only the owner process
/// can see them, so SysV scenarios should pass no endpoints.
inline InvariantReport check_invariants(
    NodePool& pool, const std::vector<MsgQueue*>& queues,
    PayloadPool* payloads = nullptr,
    const std::vector<NativeEndpoint*>& endpoints = {}) {
  InvariantReport r;

  std::vector<char> free_mark(pool.capacity(), 0);
  pool.mark_free(free_mark);
  std::vector<char> reach_mark(pool.capacity(), 0);
  for (MsgQueue* q : queues) r.queued_nodes += q->mark_reachable(reach_mark);

  for (std::uint32_t i = 0; i < pool.capacity(); ++i) {
    const bool is_free = free_mark[i] != 0;
    const bool is_reach = reach_mark[i] != 0;
    r.free_nodes += is_free;
    if (is_free && is_reach) {
      r.violations.push_back("node " + std::to_string(i) +
                             " both free-listed and queue-reachable");
    } else if (!is_free && !is_reach) {
      r.violations.push_back(
          "node " + std::to_string(i) + " leaked (owner pid " +
          std::to_string(pool.node(i).owner_pid) + ")");
    }
  }
  if (pool.free_count() != r.free_nodes) {
    r.violations.push_back("pool free_count " +
                           std::to_string(pool.free_count()) +
                           " != walked free list " +
                           std::to_string(r.free_nodes));
  }

  if (payloads != nullptr) {
    std::vector<char> slot_free(payloads->capacity(), 0);
    payloads->mark_free(slot_free);
    std::uint32_t walked_free = 0;
    for (std::uint32_t i = 0; i < payloads->capacity(); ++i) {
      const std::uint32_t owner = payloads->slot_owner(i);
      if (slot_free[i]) {
        // mark_free() repairs owner stamps on free-listed slots, so a
        // free slot claiming an owner here means the repair itself broke.
        ++walked_free;
        if (owner != 0) {
          r.violations.push_back("payload slot " + std::to_string(i) +
                                 " free-listed but owned by pid " +
                                 std::to_string(owner));
        }
        continue;
      }
      if (owner == 0) {
        r.violations.push_back("payload slot " + std::to_string(i) +
                               " leaked (no owner)");
      } else if (!process_alive(owner)) {
        r.violations.push_back("payload slot " + std::to_string(i) +
                               " held by dead pid " + std::to_string(owner));
      }
      // Loaned to a live process: legal mid-protocol state, not a leak.
    }
    if (payloads->free_count() != walked_free) {
      r.violations.push_back("payload free_count " +
                             std::to_string(payloads->free_count()) +
                             " != walked free list " +
                             std::to_string(walked_free));
    }
  }

  for (NativeEndpoint* ep : endpoints) {
    if (ep == nullptr) continue;
    const bool queue_empty =
        ep->ring ? ep->ring->empty() : ep->queue->empty();
    const bool awake = ep->awake.is_set();
    const std::uint32_t tokens = ep->fsem.value();
    if (!queue_empty && !awake && tokens == 0) {
      r.violations.push_back("endpoint " + std::to_string(ep->id) +
                             ": lost wake-up (queued messages, awake " +
                             "clear, no semaphore token)");
    }
    if (queue_empty && tokens > 0) {
      r.violations.push_back("endpoint " + std::to_string(ep->id) +
                             ": stale semaphore token (" +
                             std::to_string(tokens) + " banked, queue empty)");
    }
  }

  return r;
}

}  // namespace ulipc::explore
