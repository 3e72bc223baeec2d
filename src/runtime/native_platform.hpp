// NativePlatform: the Platform-concept implementation over real operating
// system facilities — this is the deployable library.
//
//   queues     : Michael & Scott queues (two-lock or lock-free) on the
//                receive endpoints, SPSC rings on the client reply ones
//   awake flag : seq_cst test-and-set word in shared memory
//   semaphore  : futex-based (modern) or SysV (the paper's primitive),
//                selected per platform instance
//   yield      : sched_yield(2)
//   busy_wait  : sched_yield on a uniprocessor configuration, a 25 us
//                clock-deadline delay slice on a multiprocessor one
//                (paper §2.1/§5)
//
// One NativePlatform instance lives in each process (its counters are
// process-local); endpoints live in shared memory and are shared by all.
#pragma once

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/clock.hpp"
#include "common/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_ring.hpp"
#include "protocols/platform.hpp"
#include "queue/msg_queue.hpp"
#include "queue/spsc_ring.hpp"
#include "runtime/doorbell.hpp"
#include "shm/futex_semaphore.hpp"
#include "shm/offset_ptr.hpp"
#include "shm/sysv_semaphore.hpp"
#include "shm/tas_flag.hpp"

namespace ulipc {

/// Which counting-semaphore implementation endpoints block on.
enum class SemKind : std::uint8_t {
  kFutex,  // futex-based; V on an uncontended semaphore costs no syscall
  kSysv,   // SysV semop; the paper's primitive ("similar weight to the four
           // SysV message queue calls")
};

/// The paper's Q[x], resident in shared memory: a queue, its awake flag,
/// and the semaphore its consumer sleeps on (both kinds are embedded; the
/// platform's SemKind selects which one is used).
///
/// The queue is exactly one of two structures. A client reply endpoint is
/// an SpscRing, whose producers share its producer lock; the MPSC receive
/// endpoints (the server's and the pool's shards) are a MsgQueue of either
/// engine.
struct NativeEndpoint {
  OffsetPtr<MsgQueue> queue;  // null on reply endpoints
  OffsetPtr<SpscRing> ring;   // null on receive endpoints
  AwakeFlag awake;
  FutexSemaphore fsem;
  SysvSemHandle vsem;
  std::uint32_t id = 0;
  // Telemetry stamp: TSC tick at the last wake-carrying enqueue, written by
  // the producer on the V() path and consumed by the post-sleep dequeuer to
  // measure the cross-process enqueue-to-dequeue handoff latency (invariant
  // TSC makes ticks comparable across processes; each reader converts with
  // its own cached calibration). Messages stay 24 bytes.
  std::atomic<std::int64_t> last_wake_tick{0};
  // Span-plane wake attribution (obs/span.hpp): when the V() below pays a
  // wake for a freshly enqueued TRACED message, the producer stamps the
  // span id and issue tick here; the sleeper consumes (and clears) the pair
  // on sem_p return to emit the wake-delivered edge and the
  // kWakeInFlightNs sample. Same relaxed, consume-on-every-exit discipline
  // as last_wake_tick — a stamp that outlives its wake must not be
  // attributed to a later one.
  std::atomic<std::uint64_t> last_wake_span{0};
  std::atomic<std::int64_t> last_wake_span_tick{0};
  // Readiness-plane doorbell (runtime/doorbell.hpp): armed bit + ring
  // generation. Rung by every V() below; armed only while a WaitSet holds
  // this endpoint as a member, so non-multiplexed endpoints pay one
  // uncontended RMW on an already-syscall-bearing path and nothing else.
  std::atomic<std::uint32_t> doorbell{0};
};

class NativePlatform {
 public:
  using Endpoint = NativeEndpoint;

  struct Config {
    SemKind sem = SemKind::kFutex;
    bool multiprocessor = false;       // busy_wait: delay loop vs yield
    std::int64_t poll_slice_ns = 25'000;
    std::int64_t full_sleep_ns = 1'000'000'000;  // paper: sleep(1)
  };

  NativePlatform() = default;
  explicit NativePlatform(const Config& cfg) : cfg_(cfg) {}

  // Copies get an independent local metric slot carrying over the counter
  // values (the pre-registry behavior of copying a plain counters struct);
  // an external registry binding is deliberately NOT inherited — two
  // platforms writing one single-writer slot would corrupt it.
  NativePlatform(const NativePlatform& o)
      : cfg_(o.cfg_), tsc_ns_per_tick_(o.tsc_ns_per_tick_) {
    counters().restore(o.slot_->counters.snapshot());
  }
  NativePlatform& operator=(const NativePlatform& o) {
    if (this != &o) {
      cfg_ = o.cfg_;
      local_ = std::make_shared<obs::MetricSlot>();
      slot_ = local_.get();
      ring_ = nullptr;
      slot_id_ = 0;
      tsc_ns_per_tick_ = o.tsc_ns_per_tick_;
      // Span state follows the obs binding, not the counter values: a
      // fresh unbound platform minting under default decimation.
      span_adopt_ = false;
      span_shift_ = kSpanSampleShift;
      span_pid_bits_ = 0;
      span_last_sent_ = 0;
      last_span_id_ = 0;
      span_adopted_ = SpanStamp{};
      counters().restore(o.slot_->counters.snapshot());
    }
    return *this;
  }
  NativePlatform(NativePlatform&&) = default;
  NativePlatform& operator=(NativePlatform&&) = default;

  // ---- queue ----
  //
  // Each op works on the endpoint's ring if it has one, else its queue.
  // Ring producers hold the ring's producer lock (a reply endpoint may
  // have several repliers); the consumer side is lock-free. A steal of the
  // lock from a dead holder needs no repair (see queue/spsc_ring.hpp).

  // Every enqueue peeks a span stamp first (a mint, the adopted inbound
  // span for a reply, or untraced — see span_next_stamp) and COMMITS it via
  // span_note_sent only once the message actually landed: a failed enqueue
  // must neither consume the adopted span nor emit phase records.

  bool enqueue(Endpoint& ep, const Message& msg) noexcept {
    const SpanStamp st = span_next_stamp();
    bool sent;
    if (SpscRing* r = ep.ring.get()) {
      RobustGuard producers(r->producer_lock());
      sent = r->enqueue(msg, st);
    } else {
      sent = ep.queue->enqueue(msg, st);
    }
    if (sent) span_note_sent(ep, st);
    return sent;
  }
  bool dequeue(Endpoint& ep, Message* out) noexcept {
    SpanStamp st{};
    SpanStamp* sp = obs::kTraceCompiledIn ? &st : nullptr;
    SpscRing* r = ep.ring.get();
    const bool got = r ? r->dequeue(out, sp) : ep.queue->dequeue(out, sp);
    if (got) span_note_received(ep, st);
    return got;
  }
  bool queue_empty(Endpoint& ep) noexcept {
    SpscRing* r = ep.ring.get();
    return r ? r->empty() : ep.queue->empty();
  }

  std::uint32_t enqueue_batch(Endpoint& ep, const Message* msgs,
                              std::uint32_t n) noexcept {
    // One stamp per batch, on the first message that lands (fidelity
    // degrades to one sampled span per flush on batched paths).
    const SpanStamp st = span_next_stamp();
    std::uint32_t done;
    if (SpscRing* r = ep.ring.get()) {
      RobustGuard producers(r->producer_lock());
      done = r->enqueue_batch(msgs, n, st);
    } else {
      done = ep.queue->enqueue_batch(msgs, n, st);
    }
    if (done != 0) span_note_sent(ep, st);
    return done;
  }
  std::uint32_t dequeue_batch(Endpoint& ep, Message* out,
                              std::uint32_t max) noexcept {
    SpanStamp st{};
    SpanStamp* sp = obs::kTraceCompiledIn ? &st : nullptr;
    SpscRing* r = ep.ring.get();
    const std::uint32_t got = r ? r->dequeue_batch(out, max, sp)
                                : ep.queue->dequeue_batch(out, max, sp);
    span_note_received(ep, st);
    return got;
  }

  // ---- awake flag ----

  bool tas_awake(Endpoint& ep) noexcept { return ep.awake.tas(); }
  void clear_awake(Endpoint& ep) noexcept { ep.awake.clear(); }
  void set_awake(Endpoint& ep) noexcept { ep.awake.set(); }
  bool awake_is_set(Endpoint& ep) noexcept { return ep.awake.is_set(); }

  // ---- semaphore ----

  void sem_p(Endpoint& ep) {
    if (cfg_.sem == SemKind::kFutex) {
      ep.fsem.wait();
    } else {
      SysvSemaphoreSet::wait(ep.vsem);
    }
  }
  void sem_v(Endpoint& ep) {
    if (cfg_.sem == SemKind::kFutex) {
      ep.fsem.post();
    } else {
      SysvSemaphoreSet::post(ep.vsem);
    }
    // Ring AFTER the token is banked: an aggregate waiter ungated by this
    // ring claims the member with tas + sem_p, and the P must find (or be
    // about to receive) the V just posted.
#ifndef ULIPC_AB_NO_DOORBELL  // A/B escape hatch, never defined in builds
    doorbell_ring(ep.doorbell);
#endif
  }

  /// Timed P against an absolute time_ns() (CLOCK_MONOTONIC) deadline.
  /// Returns false iff the deadline passed without acquiring a unit.
  bool sem_p_until(Endpoint& ep, std::int64_t deadline_ns) {
    if (deadline_ns == kNoDeadline) {
      sem_p(ep);
      return true;
    }
    const std::int64_t budget = deadline_ns - time_ns();
    if (cfg_.sem == SemKind::kFutex) {
      return ep.fsem.timed_wait(budget);
    }
    return SysvSemaphoreSet::timed_wait(ep.vsem, budget);
  }

  // ---- scheduling ----

  void yield() noexcept { sched_yield(); }

  void busy_wait(Endpoint&) noexcept {
    if (cfg_.multiprocessor) {
      DelayLoop::spin_ns(cfg_.poll_slice_ns);
    } else {
      sched_yield();
    }
  }

  void poll_queue(Endpoint& ep) noexcept { busy_wait(ep); }

  void sleep_seconds(int secs) noexcept {
    // The paper's queue-full back-off is sleep(1); the configured duration
    // lets tests exercise the flow-control path without 1 s stalls.
    sleep_ns_eintr(cfg_.full_sleep_ns * secs);
  }

  /// Flow-control back-off clamped to an absolute deadline: sleeps the
  /// configured full_sleep_ns quantum or the remaining budget, whichever is
  /// smaller, and returns immediately once the deadline has passed. Keeps
  /// a timed send from overshooting its deadline by (up to) a whole
  /// quantum — the sender re-checks the deadline right after this returns.
  void sleep_capped(std::int64_t deadline_ns) noexcept {
    std::int64_t total = cfg_.full_sleep_ns;
    if (deadline_ns != kNoDeadline) {
      const std::int64_t remaining = deadline_ns - time_ns();
      if (remaining <= 0) return;
      total = std::min(total, remaining);
    }
    sleep_ns_eintr(total);
  }

  void fence() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void work_us(double us) noexcept {
    DelayLoop::spin_ns(static_cast<std::int64_t>(us * 1'000.0));
  }

  [[nodiscard]] std::int64_t time_ns() noexcept { return now_ns(); }

  obs::LiveCounters& counters() noexcept { return slot_->counters; }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // ---- observability ----
  //
  // By default every platform writes a private heap-allocated MetricSlot
  // (the old process-local counters, now externally snapshotable). Binding
  // redirects all metrics — and, when compiled in, trace records — to a
  // slot/ring pair inside the channel's shm registry, making this
  // platform's activity visible to ulipc-stat. One platform instance per
  // slot: the registry cells are single-writer.

  void bind_obs(obs::MetricSlot* slot, obs::TraceRing* ring,
                std::uint16_t slot_id,
                obs::SlotRole role = obs::SlotRole::kUnbound) noexcept {
    slot_ = slot != nullptr ? slot : local_.get();
    ring_ = ring;
    slot_id_ = slot_id;
    // Span plane: serving roles ADOPT inbound spans (their next send is the
    // reply closing the request leg); originating roles mint fresh ids and
    // treat inbound stamps as span terminals. The unbound default keeps a
    // bare platform minting like a client, which is what the protocol unit
    // tests exercise.
    span_adopt_ = role == obs::SlotRole::kServer ||
                  role == obs::SlotRole::kPoolWorker;
    span_pid_bits_ = 0;  // re-derive: bind may follow a fork / slot change
    span_adopted_ = SpanStamp{};
    span_last_sent_ = 0;
    if (const char* env = std::getenv("ULIPC_SPAN_SHIFT")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && v >= 0) {
        set_span_sample_shift(static_cast<std::uint32_t>(v));
      }
    }
    // Warm the process-wide TSC calibration here, outside any timed loop:
    // obs_rt_end() converts ticks to ns and must never pay the one-shot
    // ~2 ms measurement inside the first round trip it instruments.
    tsc_ns_per_tick_ = TscClock::cached().ns_per_tick;
  }

  /// Span mint rate = 1 in 2^shift sends (0 traces every send — tests and
  /// the smoke jobs use that via ULIPC_SPAN_SHIFT=0).
  void set_span_sample_shift(std::uint32_t shift) noexcept {
    span_shift_ = std::min(shift, 20u);
  }

  /// Span id of this platform's most recent traced send (0 when the last
  /// send was unsampled). The resilience layer mirrors it into the payload
  /// slot header of loaned requests right after the send.
  [[nodiscard]] std::uint64_t obs_last_span_id() const noexcept {
    return last_span_id_;
  }

  [[nodiscard]] obs::MetricSlot& metrics() noexcept { return *slot_; }
  [[nodiscard]] obs::TraceRing* trace_ring() noexcept { return ring_; }

  void obs_trace(obs::TraceEvent ev, std::uint32_t a = 0,
                 std::uint64_t b = 0) noexcept {
    if constexpr (obs::kTraceCompiledIn) {
      if (ring_ != nullptr) ring_->emit(ev, slot_id_, a, b);
    } else {
      (void)ev;
      (void)a;
      (void)b;
    }
  }

  // Hook methods called from the protocol templates (see obs/hooks.hpp).
  // The timing hooks are DECIMATED: even with rdtsc (~15 ns/read here, vs
  // ~26 ns for a vDSO clock_gettime), timestamping every round trip and
  // every sleep costs several percent of a ~110 ns/msg batched round trip.
  // Sampling 1-in-2^k with the histogram weight scaled by 2^k keeps the
  // recorded totals and the percentile shape (the workload is stationary
  // over any 16-event stretch) while cutting the clock reads to noise.
  // Counter updates are never sampled — they are exact.
  static constexpr std::uint32_t kRtSampleShift = 4;     // time 1 in 16
  static constexpr std::uint32_t kSleepSampleShift = 4;  // time 1 in 16
  static constexpr std::uint32_t kWakeSampleShift = 2;   // stamp 1 in 4
  static constexpr std::uint32_t kBatchSampleShift = 2;  // hist 1 in 4

  void obs_enqueue(Endpoint& ep) noexcept {
    obs_trace(obs::TraceEvent::kEnqueue, ep.id);
  }
  void obs_dequeue(Endpoint& ep) noexcept {
    obs_trace(obs::TraceEvent::kDequeue, ep.id);
  }
  void obs_wakeup_sent(Endpoint& ep) noexcept {
    if ((wake_decim_++ & ((1u << kWakeSampleShift) - 1)) == 0) {
      ep.last_wake_tick.store(static_cast<std::int64_t>(TscClock::now()),
                              std::memory_order_relaxed);
    }
    if constexpr (obs::kTraceCompiledIn) {
      // Wake-issued edge: attribute this V() to the traced message we JUST
      // enqueued (span_note_sent armed span_last_sent_; every send rewrites
      // it, so a wake paid for a later untraced message never lands on a
      // stale span). Tick stored before id: a consumer that sees the id
      // sees a tick no older than its wake.
      if (span_last_sent_ != 0) {
        ep.last_wake_span_tick.store(static_cast<std::int64_t>(TscClock::now()),
                                     std::memory_order_relaxed);
        ep.last_wake_span.store(span_last_sent_, std::memory_order_relaxed);
        obs_trace(obs::TraceEvent::kSpanWakeIssue, ep.id, span_last_sent_);
        span_last_sent_ = 0;
      }
    }
    obs_trace(obs::TraceEvent::kWakeupSent, ep.id);
  }
  /// Returns the sleep-entry tick, or -1 when this sleep is not sampled.
  std::int64_t obs_sleep_begin(Endpoint& ep) noexcept {
    obs_trace(obs::TraceEvent::kSleepBegin, ep.id);
    if ((sleep_decim_++ & ((1u << kSleepSampleShift) - 1)) != 0) return -1;
    return static_cast<std::int64_t>(TscClock::now());
  }
  void obs_sleep_end(Endpoint& ep, std::int64_t t0, bool timed_out) noexcept {
    // The wake stamp is consumed (and cleared) on EVERY sleep exit, sampled
    // or not: a stamp left behind by an unsampled exit would otherwise be
    // read many wake-ups later as an absurdly long handoff latency.
    const std::int64_t stamp =
        ep.last_wake_tick.load(std::memory_order_relaxed);
    if (stamp != 0) ep.last_wake_tick.store(0, std::memory_order_relaxed);
    if constexpr (obs::kTraceCompiledIn) {
      // Wake-delivered edge: consume the span wake stamp under the same
      // every-exit discipline. A timed-out exit still clears it (the wake
      // it names was absorbed or raced away) but emits nothing.
      const std::uint64_t wspan =
          ep.last_wake_span.load(std::memory_order_relaxed);
      if (wspan != 0) {
        ep.last_wake_span.store(0, std::memory_order_relaxed);
        if (!timed_out) {
          const std::int64_t wtick =
              ep.last_wake_span_tick.load(std::memory_order_relaxed);
          const auto wnow = static_cast<std::int64_t>(TscClock::now());
          if (wnow > wtick) {
            slot_->hist(obs::HistKind::kWakeInFlightNs)
                .record(obs_ticks_to_ns(wnow - wtick));
          }
          obs_trace(obs::TraceEvent::kSpanWakeDeliver, ep.id, wspan);
        }
      }
    }
    if (t0 >= 0) {
      const auto now = static_cast<std::int64_t>(TscClock::now());
      slot_->hist(obs::HistKind::kSleepNs)
          .record(obs_ticks_to_ns(now - t0),
                  std::uint64_t{1} << kSleepSampleShift);
      if (!timed_out && stamp != 0 && now > stamp) {
        slot_->hist(obs::HistKind::kWakeLatencyNs)
            .record(obs_ticks_to_ns(now - stamp));
      }
    }
    obs_trace(obs::TraceEvent::kSleepEnd, ep.id, timed_out ? 1 : 0);
  }
  void obs_batch_flush(Endpoint& ep, std::uint32_t n) noexcept {
    if ((batch_decim_++ & ((1u << kBatchSampleShift) - 1)) == 0) {
      slot_->hist(obs::HistKind::kBatchSize)
          .record(n, std::uint64_t{1} << kBatchSampleShift);
    }
    obs_trace(obs::TraceEvent::kBatchFlush, ep.id, n);
  }
  void obs_spin(Endpoint& ep, std::uint32_t iters, bool exhausted) noexcept {
    if ((spin_decim_++ & ((1u << kBatchSampleShift) - 1)) == 0) {
      slot_->hist(obs::HistKind::kSpinIters)
          .record(iters, std::uint64_t{1} << kBatchSampleShift);
    }
    if (exhausted) obs_trace(obs::TraceEvent::kSpinExhausted, ep.id, iters);
  }
  void obs_round_trip(std::int64_t ns, std::uint64_t weight) noexcept {
    slot_->hist(obs::HistKind::kRoundTripNs)
        .record(static_cast<std::uint64_t>(ns > 0 ? ns : 0), weight);
  }
  /// Payload-plane loan made; returns the loan tick (-1 when unsampled).
  /// The counter is exact, the hold-time histogram is decimated like the
  /// other timing hooks.
  [[nodiscard]] std::int64_t obs_loan_made() noexcept {
    ++counters().loans;
    if ((loan_decim_++ & ((1u << kBatchSampleShift) - 1)) != 0) return -1;
    return static_cast<std::int64_t>(TscClock::now());
  }
  void obs_loan_released(std::int64_t t0) noexcept {
    ++counters().loan_releases;
    if (t0 <= 0) return;
    const auto now = static_cast<std::int64_t>(TscClock::now());
    slot_->hist(obs::HistKind::kLoanHoldNs)
        .record(obs_ticks_to_ns(now - t0),
                std::uint64_t{1} << kBatchSampleShift);
  }

  // Round-trip bracket (obs::round_trip_begin/end): rdtsc, not
  // clock_gettime — this pair runs INSIDE the latency it measures, and two
  // vDSO clock reads per window are a measurable fraction of a ~100 ns/msg
  // batched round trip. Ticks convert to ns at record time via the cached
  // process calibration (lazily measured if nothing bound this platform).
  /// Returns the round-trip start tick, or -1 when this one is skipped by
  /// the sampling decimation.
  [[nodiscard]] std::int64_t obs_rt_begin() noexcept {
    if ((rt_decim_++ & ((1u << kRtSampleShift) - 1)) != 0) return -1;
    return static_cast<std::int64_t>(TscClock::now());
  }
  void obs_rt_end(std::int64_t t0, std::uint64_t count) noexcept {
    if (t0 < 0 || count == 0) return;
    const auto dt = static_cast<std::int64_t>(TscClock::now()) - t0;
    const auto dt_ns = static_cast<std::int64_t>(obs_ticks_to_ns(dt));
    obs_round_trip(dt_ns / static_cast<std::int64_t>(count),
                   count << kRtSampleShift);
  }

  // Decimated span minting: a fresh span is traced for 1 in 2^span_shift_
  // sends (default 1 in 32; ULIPC_SPAN_SHIFT / set_span_sample_shift
  // override). Adopting roles never mint — they either carry the adopted
  // inbound span into their reply or send untraced.
  static constexpr std::uint32_t kSpanSampleShift = 5;

 private:
  // ---- span plane (obs/span.hpp) ----

  /// Peeks the stamp the NEXT enqueue should carry. Pure peek: the adopted
  /// span and the decimation counter state are only committed by
  /// span_note_sent after a successful enqueue (a mint that never lands
  /// just wastes one 24-bit sequence number).
  [[nodiscard]] SpanStamp span_next_stamp() noexcept {
#ifdef ULIPC_AB_NO_SPANMINT  // A/B escape hatch, never defined in builds
    return SpanStamp{};
#endif
    if constexpr (obs::kTraceCompiledIn) {
      if (span_adopt_) {
        if (!span_adopted_.traced()) return SpanStamp{};
        return SpanStamp{span_adopted_.id,
                         static_cast<std::int64_t>(TscClock::now())};
      }
      if ((span_decim_++ & ((1u << span_shift_) - 1)) != 0) return SpanStamp{};
      return SpanStamp{span_mint_id(),
                       static_cast<std::int64_t>(TscClock::now())};
    } else {
      return SpanStamp{};
    }
  }

  /// Commits a successful send of a message stamped `st`. An adopting role
  /// sending its adopted span emits the service-done/reply-enqueue edge and
  /// releases the span; anyone else emits the send-enqueue edge of a fresh
  /// span. Also arms the wake-issued attribution for obs_wakeup_sent —
  /// rewritten on EVERY send (0 when untraced) so only the wake paid for
  /// this exact message can be attributed to the span.
  void span_note_sent(Endpoint& ep, const SpanStamp& st) noexcept {
    if constexpr (obs::kTraceCompiledIn) {
      span_last_sent_ = st.id;
      last_span_id_ = st.id;  // 0 too: "last send untraced" is meaningful
      if (!st.traced()) return;
      if (span_adopt_ && st.id == span_adopted_.id) {
        slot_->hist(obs::HistKind::kServiceNs)
            .record(obs_ticks_to_ns(st.tick - span_adopt_tick_));
        obs_trace(obs::TraceEvent::kSpanReplyEnqueue, ep.id, st.id);
        span_adopted_ = SpanStamp{};
      } else {
        obs_trace(obs::TraceEvent::kSpanSend, ep.id, st.id);
      }
    } else {
      (void)ep;
      (void)st;
    }
  }

  /// Commits a dequeue that surfaced a traced stamp. An adopting role
  /// records queue residency (sender's enqueue tick -> now, cross-process
  /// via invariant TSC) and holds the span until its reply send; a
  /// terminal role records the reply path and closes the span.
  void span_note_received(Endpoint& ep, const SpanStamp& st) noexcept {
    if constexpr (obs::kTraceCompiledIn) {
      if (!st.traced()) return;
      const auto now = static_cast<std::int64_t>(TscClock::now());
      if (span_adopt_) {
        slot_->hist(obs::HistKind::kQueueResidencyNs)
            .record(obs_ticks_to_ns(now - st.tick));
        obs_trace(obs::TraceEvent::kSpanDequeue, ep.id, st.id);
        span_adopted_ = st;
        span_adopt_tick_ = now;
      } else {
        slot_->hist(obs::HistKind::kReplyPathNs)
            .record(obs_ticks_to_ns(now - st.tick));
        obs_trace(obs::TraceEvent::kSpanReplyRecv, ep.id, st.id);
      }
    } else {
      (void)ep;
      (void)st;
    }
  }

  /// Mints the next span id: | pid | slot | seq | (see obs::make_span_id).
  /// The pid half is derived lazily so forked children stamp their own.
  [[nodiscard]] std::uint64_t span_mint_id() noexcept {
    if (span_pid_bits_ == 0) {
      span_pid_bits_ = obs::make_span_id(
          static_cast<std::uint32_t>(::getpid()), slot_id_, 0);
    }
    return span_pid_bits_ | (++span_seq_ & 0xffffffu);
  }

  /// Tick delta -> ns via the process calibration (fetched lazily so
  /// never-bound platforms only pay the one-shot measurement if they
  /// actually record; bind_obs() pre-warms it). Negative deltas clamp to 0.
  [[nodiscard]] std::uint64_t obs_ticks_to_ns(std::int64_t dticks) noexcept {
    if (dticks <= 0) return 0;
    if (tsc_ns_per_tick_ == 0.0) {
      tsc_ns_per_tick_ = TscClock::cached().ns_per_tick;
    }
    return static_cast<std::uint64_t>(static_cast<double>(dticks) *
                                      tsc_ns_per_tick_);
  }

  Config cfg_{};
  std::shared_ptr<obs::MetricSlot> local_ = std::make_shared<obs::MetricSlot>();
  obs::MetricSlot* slot_ = local_.get();
  obs::TraceRing* ring_ = nullptr;
  std::uint16_t slot_id_ = 0;
  double tsc_ns_per_tick_ = 0.0;  // 0 = calibration not yet fetched
  std::uint32_t rt_decim_ = 0;    // timing-hook decimation counters
  std::uint32_t sleep_decim_ = 0;
  std::uint32_t wake_decim_ = 0;
  std::uint32_t batch_decim_ = 0;
  std::uint32_t spin_decim_ = 0;
  std::uint32_t loan_decim_ = 0;

  // Span-plane state (single-writer, like the decimation counters above:
  // one platform instance per thread).
  bool span_adopt_ = false;  // role adopts inbound spans (serving side)
  std::uint32_t span_shift_ = kSpanSampleShift;
  std::uint32_t span_decim_ = 0;
  std::uint32_t span_seq_ = 0;        // 24-bit mint sequence
  std::uint64_t span_pid_bits_ = 0;   // cached pid|slot id half (0 = unset)
  std::uint64_t span_last_sent_ = 0;  // arms wake-issued attribution
  std::uint64_t last_span_id_ = 0;    // payload-mirror accessor backing
  SpanStamp span_adopted_{};          // inbound span being serviced
  std::int64_t span_adopt_tick_ = 0;  // local dequeue tick of the adoption
};

static_assert(Platform<NativePlatform>);

}  // namespace ulipc
