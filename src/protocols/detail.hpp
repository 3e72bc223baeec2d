// Shared building blocks of the blocking protocols: the consumer-side
// sleep-with-recheck loop and the producer-side guarded wake-up.
//
// These encode the race-condition fixes of the paper's Figure 4:
//  * step C.3 (the "seemingly redundant" recheck dequeue) prevents
//    Interleaving 4 (producer checks the flag between the consumer's failed
//    dequeue and its clearing of the flag -> consumer sleeps forever);
//  * the producer's test-and-set ensures only the first producer to observe
//    awake==0 pays the V() (Interleaving 2, multiple wake-ups);
//  * the consumer's test-and-set on the recheck-success path absorbs a
//    wake-up sent by a producer that raced with the recheck
//    (Interleaving 3, wake-up without sleep), keeping the semaphore count
//    from accumulating.
#pragma once

#include "explore/hooks.hpp"
#include "obs/hooks.hpp"
#include "protocols/platform.hpp"

namespace ulipc::detail {

/// Producer side with a deadline: enqueue with queue-full flow control
/// (paper: sleep(1)), then wake the consumer iff it may be asleep. Returns
/// kTimeout if the queue stays full past `deadline_ns` (absolute time on
/// p.time_ns(); kNoDeadline blocks forever). Platforms that provide
/// sleep_capped() get the flow-control sleep clamped to the remaining
/// deadline, so a timed send returns within one timer tick of its deadline
/// instead of overshooting by a full sleep quantum; platforms without it
/// (the simulator models the paper's literal sleep(1)) keep the quantum.
template <Platform P>
Status enqueue_and_wake_until(P& p, typename P::Endpoint& q,
                              const Message& msg, std::int64_t deadline_ns) {
  while (!p.enqueue(q, msg)) {
    if (deadline_ns != kNoDeadline && p.time_ns() >= deadline_ns) {
      ++p.counters().timeouts;
      return Status::kTimeout;
    }
    ++p.counters().full_sleeps;
    explore::about_to_block(explore::Point::kProtFullSleep);
    if constexpr (requires { p.sleep_capped(deadline_ns); }) {
      p.sleep_capped(deadline_ns);
    } else {
      p.sleep_seconds(1);  // "waiting a full second should allow the
                           //  consumer to reduce the backlog" (paper §3)
    }
    explore::resumed();
  }
  obs::enqueued(p, q);
  explore::point(explore::Point::kProtEnqueued);
  p.fence();  // order the enqueue before the awake-flag read (SB pattern)
  if (!p.tas_awake(q)) {
    ++p.counters().wakeups;
    obs::wakeup_sent(p, q);
    explore::point(explore::Point::kProtPreWake);
    p.sem_v(q);
    explore::point(explore::Point::kProtWakeDone);
  }
  return Status::kOk;
}

/// Producer side, untimed (the paper's original protocol step).
template <Platform P>
void enqueue_and_wake(P& p, typename P::Endpoint& q, const Message& msg) {
  (void)enqueue_and_wake_until(p, q, msg, kNoDeadline);
}

/// Absorbs the token of a producer whose tas saw our cleared awake flag:
/// its V is banked or in flight, so the P normally returns at once. It is
/// bounded by the caller's deadline all the same — a producer SIGKILLed
/// between its tas and its V never posts, and an untimed P would hang a
/// deadline-bound consumer forever. If the P gives up, a late V leaves a
/// stale token, which is benign: the next sleeper wakes, finds the queue
/// empty at C.1, and sleeps again.
template <Platform P>
void absorb_until(P& p, typename P::Endpoint& q, std::int64_t deadline_ns) {
  explore::about_to_block(explore::Point::kProtAbsorb);
  (void)p.sem_p_until(q, deadline_ns);
  explore::resumed();
}

/// Consumer side with a deadline: dequeue, sleeping on the endpoint's
/// semaphore while the queue is empty, giving up once `deadline_ns` passes.
/// `pre_busy_wait` inserts the BSWY hand-off hint at the top of each retry
/// (paper Figure 7: "busy_wait(); /* Try to handoff */").
///
/// Timeout semantics preserve the no-lost-wakeup guarantee AND avoid
/// manufacturing stale semaphore tokens: when the timed sleep expires, the
/// consumer re-runs the dequeue before giving up. A producer that raced
/// the expiry (enqueue -> tas(awake) -> V between our timer firing and our
/// C.5) would otherwise leave a banked token that wakes the NEXT sleeper
/// spuriously with an empty queue; the expiry recheck instead delivers
/// that message now — absorbing the matching token iff the producer's tas
/// saw awake==0 — and only a genuinely-empty recheck restores the flag
/// and returns kTimeout. Spurious wake-ups already re-sleep with the
/// REMAINING deadline: deadline_ns is absolute, so every sem_p_until
/// re-arm computes the leftover budget, never the full one.
template <Platform P>
Status dequeue_or_sleep_until(P& p, typename P::Endpoint& q, Message* out,
                              bool pre_busy_wait, std::int64_t deadline_ns) {
  while (!p.dequeue(q, out)) {          // C.1
    explore::point(explore::Point::kProtDeqEmpty);
    if (deadline_ns != kNoDeadline && p.time_ns() >= deadline_ns) {
      ++p.counters().timeouts;
      return Status::kTimeout;
    }
    if (pre_busy_wait) {
      ++p.counters().busy_waits;
      p.busy_wait(q);
      // The hand-off hint may have let the producer run; fall through into
      // the sleep protocol only if the queue is still empty.
    }
    p.clear_awake(q);                   // C.2
    explore::point(explore::Point::kProtCleared);
    p.fence();  // order the flag clear before the recheck (SB pattern)
    if (!p.dequeue(q, out)) {           // C.3 -- still empty
      explore::point(explore::Point::kProtRecheckEmpty);
      ++p.counters().blocks;
      const std::int64_t sleep_t0 = obs::sleep_begin(p, q);
      explore::about_to_block(explore::Point::kProtSleep);
      if (!p.sem_p_until(q, deadline_ns)) {  // C.4 -- timed sleep
        explore::resumed();
        obs::sleep_end(p, q, sleep_t0, /*timed_out=*/true);
        explore::point(explore::Point::kProtTimedOut);
        // Expiry recheck: a producer may have slipped a message (and
        // possibly a V) in between our timer firing and this line. Take
        // the message instead of leaving a stale token for the next
        // sleeper to wake on with an empty queue.
        if (p.dequeue(q, out)) {
          if (p.tas_awake(q)) {
            // Our tas found awake==1: the producer's tas ran first, saw
            // our cleared flag, and committed to V — its token is banked
            // or in flight (the producer may sit between its tas and its
            // V), so this P returns promptly but MAY momentarily block.
            // The about_to_block bracket keeps the explore controller's
            // floor free across that window. The P is bounded by the
            // deadline (already past here) — see absorb_until.
            ++p.counters().sem_absorbs;
            absorb_until(p, q, deadline_ns);
          }
          obs::dequeued(p, q);
          return Status::kOk;
        }
        p.set_awake(q);  // C.5 on the timeout path too: nobody is sleeping
        explore::point(explore::Point::kProtSetAwake);
        ++p.counters().timeouts;
        return Status::kTimeout;
      }
      explore::resumed();
      obs::sleep_end(p, q, sleep_t0, /*timed_out=*/false);
      explore::point(explore::Point::kProtWoke);
      p.set_awake(q);                   // C.5
      explore::point(explore::Point::kProtSetAwake);
      // Loop: the wake-up means a producer enqueued, but with multiple
      // producers the message may already be gone; iterate.
    } else {
      explore::point(explore::Point::kProtRecheckHit);
      // Recheck succeeded. If a producer raced us (saw our cleared flag and
      // committed to V), absorb the extra count so it cannot accumulate.
      // The token may still be in flight (producer between tas and V), so
      // bracket the P for the explore controller exactly as above.
      if (p.tas_awake(q)) {
        ++p.counters().sem_absorbs;
        absorb_until(p, q, deadline_ns);
      }
      obs::dequeued(p, q);
      return Status::kOk;
    }
  }
  obs::dequeued(p, q);
  return Status::kOk;
}

/// Consumer side, untimed (the paper's original protocol steps C.1–C.5).
template <Platform P>
void dequeue_or_sleep(P& p, typename P::Endpoint& q, Message* out,
                      bool pre_busy_wait) {
  (void)dequeue_or_sleep_until(p, q, out, pre_busy_wait, kNoDeadline);
}

/// Producer side, batched: enqueues all `n` messages and issues AT MOST ONE
/// wake-up per contiguous chunk that lands — in the common case (batch fits)
/// exactly one tas/V for the whole batch, where the scalar path would pay n.
///
/// The Figure-4 producer invariant is per-chunk: publish the messages,
/// fence, then test-and-set the awake flag and V iff it was clear. Two
/// subtleties:
///  * the wake for a chunk MUST be issued before any queue-full
///    flow-control sleep — a producer that slept first while holding
///    undelivered wake-ups would deadlock against a consumer already
///    asleep at step C.4 (mutual sleep, nobody to wake either side);
///  * coalescing is only safe because one V wakes the consumer into its
///    C.1 loop, which drains the queue until empty — later messages of the
///    chunk ride the first one's wake-up (counted as wakeups_coalesced).
template <Platform P>
Status enqueue_batch_and_wake_until(P& p, typename P::Endpoint& q,
                                    const Message* msgs, std::uint32_t n,
                                    std::int64_t deadline_ns) {
  std::uint32_t done = 0;
  while (done < n) {
    const std::uint32_t k = p.enqueue_batch(q, msgs + done, n - done);
    if (k > 0) {
      done += k;
      ++p.counters().batch_enqueues;
      p.counters().wakeups_coalesced += k - 1;
      obs::batch_flush(p, q, k);
      explore::point(explore::Point::kProtEnqueued);
      p.fence();  // order the enqueues before the awake-flag read
      if (!p.tas_awake(q)) {
        ++p.counters().wakeups;
        obs::wakeup_sent(p, q);
        explore::point(explore::Point::kProtPreWake);
        p.sem_v(q);
        explore::point(explore::Point::kProtWakeDone);
      }
      continue;  // queue may have drained already; retry before sleeping
    }
    if (deadline_ns != kNoDeadline && p.time_ns() >= deadline_ns) {
      ++p.counters().timeouts;
      return Status::kTimeout;
    }
    ++p.counters().full_sleeps;
    explore::about_to_block(explore::Point::kProtFullSleep);
    if constexpr (requires { p.sleep_capped(deadline_ns); }) {
      p.sleep_capped(deadline_ns);
    } else {
      p.sleep_seconds(1);
    }
    explore::resumed();
  }
  return Status::kOk;
}

/// Producer side, batched and untimed.
template <Platform P>
void enqueue_batch_and_wake(P& p, typename P::Endpoint& q,
                            const Message* msgs, std::uint32_t n) {
  (void)enqueue_batch_and_wake_until(p, q, msgs, n, kNoDeadline);
}

/// Consumer side, batched: delivers BETWEEN 1 and `max` messages into
/// `out`, sleeping (via the full C.1–C.5 protocol) only when the queue is
/// empty. The sleep path is literally the scalar dequeue_or_sleep_until —
/// all Figure-4 race fixes apply unchanged — followed by a non-blocking
/// drain of whatever else already arrived, so batching never adds a place
/// where a wake-up could be lost. On kTimeout/kPeerDead, *got is 0.
template <Platform P>
Status dequeue_batch_or_sleep_until(P& p, typename P::Endpoint& q,
                                    Message* out, std::uint32_t max,
                                    std::uint32_t* got, bool pre_busy_wait,
                                    std::int64_t deadline_ns) {
  *got = 0;
  if (max == 0) return Status::kOk;
  const std::uint32_t k = p.dequeue_batch(q, out, max);
  if (k > 0) {  // fast path: burst already queued, one lock pass, no sleep
    *got = k;
    ++p.counters().batch_dequeues;
    obs::dequeued(p, q);
    return Status::kOk;
  }
  const Status st =
      dequeue_or_sleep_until(p, q, out, pre_busy_wait, deadline_ns);
  if (st != Status::kOk) return st;
  *got = 1 + p.dequeue_batch(q, out + 1, max - 1);
  if (*got > 1) ++p.counters().batch_dequeues;
  return Status::kOk;
}

/// Consumer side, batched and untimed. Returns the delivered count (>= 1).
template <Platform P>
std::uint32_t dequeue_batch_or_sleep(P& p, typename P::Endpoint& q,
                                     Message* out, std::uint32_t max,
                                     bool pre_busy_wait) {
  std::uint32_t got = 0;
  (void)dequeue_batch_or_sleep_until(p, q, out, max, &got, pre_busy_wait,
                                     kNoDeadline);
  return got;
}

}  // namespace ulipc::detail
