// Span plane: causal request tracing across processes.
//
// A *span* is one request's life across the channel: minted at send-enqueue
// on the client, adopted by the server at dequeue, and closed when the
// client dequeues the reply. The span id never travels in the 24-byte wire
// Message — it rides in the per-node SpanStamp next to the queue node (see
// queue/message.hpp) — and each participant drops phase-edge records
// (TraceEvent::kSpan*) into its OWN TraceRing. Nothing here synchronizes
// across processes at runtime; correlation happens after the fact, by
// stitching all rings' records on the shared span id. This header holds the
// two post-hoc halves:
//
//  * the span-id bit layout (mint helpers + field extractors), and
//  * the assembler that turns a pile of TraceRecordViews from any number of
//    rings into Span structs with one tsc per phase edge.
//
// Invariant TSC makes the stamps directly comparable across processes on
// the same machine — the same assumption the existing kWakeLatencyNs
// cross-process histogram already leans on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/trace_ring.hpp"

namespace ulipc::obs {

/// Span-id bit layout: | pid (32) | slot id (8) | sequence (24) |.
/// The pid makes ids unique across processes without coordination; the slot
/// component disambiguates multiple minting platform instances inside one
/// process (pool workers); the 24-bit sequence wraps after 16M mints per
/// (pid, slot), far beyond any ring's 1024-record horizon.
/// Id 0 is reserved for "untraced".
constexpr std::uint64_t make_span_id(std::uint32_t pid, std::uint32_t slot_id,
                                     std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(pid) << 32) |
         (static_cast<std::uint64_t>(slot_id & 0xffu) << 24) |
         (seq & 0xffffffu);
}

constexpr std::uint32_t span_pid(std::uint64_t id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr std::uint32_t span_slot(std::uint64_t id) noexcept {
  return static_cast<std::uint32_t>(id >> 24) & 0xffu;
}
constexpr std::uint32_t span_seq(std::uint64_t id) noexcept {
  return static_cast<std::uint32_t>(id) & 0xffffffu;
}

constexpr bool is_span_event(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kSpanSend:
    case TraceEvent::kSpanWakeIssue:
    case TraceEvent::kSpanWakeDeliver:
    case TraceEvent::kSpanDequeue:
    case TraceEvent::kSpanReplyEnqueue:
    case TraceEvent::kSpanReplyRecv:
      return true;
    default:
      return false;
  }
}

/// One stitched span: TSC of each of the (up to) eight records a scalar
/// round trip emits. 0 = that edge was never recorded (decimated away on a
/// batch path, lost to a ring wrap, or the receiver simply never slept —
/// the wake pairs are legitimately absent under load).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t send = 0;            // client: send-enqueue
  std::uint64_t wake_issue_req = 0;  // client: paid the request-side V
  std::uint64_t wake_deliver_req = 0;  // server: sem_p returned
  std::uint64_t dequeue = 0;           // server: request dequeued
  std::uint64_t reply_enqueue = 0;     // server: service done, reply sent
  std::uint64_t wake_issue_rep = 0;    // server: paid the reply-side V
  std::uint64_t wake_deliver_rep = 0;  // client: sem_p returned
  std::uint64_t reply_recv = 0;        // client: reply dequeued (terminal)
  std::uint16_t client_slot = 0;       // ring that emitted kSpanSend
  std::uint16_t server_slot = 0;       // ring that emitted kSpanDequeue

  /// A span is complete when the four backbone edges are present and
  /// monotonic. The wake edges are optional (absent when nobody slept) but
  /// must respect causality when present.
  [[nodiscard]] bool complete() const noexcept {
    if (send == 0 || dequeue == 0 || reply_enqueue == 0 || reply_recv == 0) {
      return false;
    }
    if (!(send <= dequeue && dequeue <= reply_enqueue &&
          reply_enqueue <= reply_recv)) {
      return false;
    }
    if (wake_issue_req != 0 && wake_deliver_req != 0 &&
        wake_issue_req > wake_deliver_req) {
      return false;
    }
    if (wake_issue_rep != 0 && wake_deliver_rep != 0 &&
        wake_issue_rep > wake_deliver_rep) {
      return false;
    }
    return true;
  }

  // Phase durations in ticks (0 when either endpoint edge is missing).
  [[nodiscard]] std::uint64_t queue_residency() const noexcept {
    return (send && dequeue && dequeue > send) ? dequeue - send : 0;
  }
  [[nodiscard]] std::uint64_t service() const noexcept {
    return (dequeue && reply_enqueue && reply_enqueue > dequeue)
               ? reply_enqueue - dequeue
               : 0;
  }
  [[nodiscard]] std::uint64_t reply_path() const noexcept {
    return (reply_enqueue && reply_recv && reply_recv > reply_enqueue)
               ? reply_recv - reply_enqueue
               : 0;
  }
  [[nodiscard]] std::uint64_t wake_in_flight_req() const noexcept {
    return (wake_issue_req && wake_deliver_req &&
            wake_deliver_req > wake_issue_req)
               ? wake_deliver_req - wake_issue_req
               : 0;
  }
  [[nodiscard]] std::uint64_t wake_in_flight_rep() const noexcept {
    return (wake_issue_rep && wake_deliver_rep &&
            wake_deliver_rep > wake_issue_rep)
               ? wake_deliver_rep - wake_issue_rep
               : 0;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return (send && reply_recv && reply_recv > send) ? reply_recv - send : 0;
  }
};

/// Stitches span records (from ANY number of rings, concatenated) into
/// spans. Tolerant by construction: a ring wrap that ate some edges leaves
/// a partial span (complete() == false) rather than poisoning assembly —
/// each edge slot takes the FIRST record seen in tsc order and ignores
/// duplicates, so replayed or torn tails cannot corrupt an earlier edge.
///
/// The one classification subtlety: kSpanWakeIssue / kSpanWakeDeliver occur
/// on both legs of a round trip with the same span id. They are told apart
/// by position — a wake record before the span's kSpanDequeue (or, when the
/// dequeue edge is missing, before kSpanReplyEnqueue) belongs to the
/// request leg, after it to the reply leg. Records are processed in global
/// tsc order to make "before" well defined.
inline std::vector<Span> assemble_spans(std::vector<TraceRecordView> records) {
  std::erase_if(records,
                [](const TraceRecordView& r) { return !is_span_event(r.event); });
  std::sort(records.begin(), records.end(),
            [](const TraceRecordView& a, const TraceRecordView& b) {
              return a.tsc < b.tsc;
            });

  std::unordered_map<std::uint64_t, Span> by_id;
  by_id.reserve(records.size() / 4 + 1);
  for (const TraceRecordView& r : records) {
    Span& s = by_id[r.arg_b];
    s.id = r.arg_b;
    const bool request_leg = s.dequeue == 0 && s.reply_enqueue == 0;
    switch (r.event) {
      case TraceEvent::kSpanSend:
        if (s.send == 0) {
          s.send = r.tsc;
          s.client_slot = r.slot;
        }
        break;
      case TraceEvent::kSpanWakeIssue:
        if (request_leg) {
          if (s.wake_issue_req == 0) s.wake_issue_req = r.tsc;
        } else if (s.wake_issue_rep == 0) {
          s.wake_issue_rep = r.tsc;
        }
        break;
      case TraceEvent::kSpanWakeDeliver:
        if (request_leg) {
          if (s.wake_deliver_req == 0) s.wake_deliver_req = r.tsc;
        } else if (s.wake_deliver_rep == 0) {
          s.wake_deliver_rep = r.tsc;
        }
        break;
      case TraceEvent::kSpanDequeue:
        if (s.dequeue == 0) {
          s.dequeue = r.tsc;
          s.server_slot = r.slot;
        }
        break;
      case TraceEvent::kSpanReplyEnqueue:
        if (s.reply_enqueue == 0) s.reply_enqueue = r.tsc;
        break;
      case TraceEvent::kSpanReplyRecv:
        if (s.reply_recv == 0) s.reply_recv = r.tsc;
        break;
      default:
        break;
    }
  }

  std::vector<Span> out;
  out.reserve(by_id.size());
  for (auto& [id, s] : by_id) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.send < b.send; });
  return out;
}

/// In-place-sorting percentile over raw samples (p in [0,100]); 0 when
/// empty. Nearest-rank, matching LogHistogram::percentile's convention of
/// returning a value at least p% of samples are <=.
inline std::uint64_t percentile_of(std::vector<std::uint64_t>& samples,
                                   double p) noexcept {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  auto idx = static_cast<std::size_t>(rank + 0.5);
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

}  // namespace ulipc::obs
