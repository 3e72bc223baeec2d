// The shared-memory metrics registry: a fixed-layout array of per-endpoint
// MetricSlots living inside the channel's arena, so any process that maps
// the region — including the out-of-process `ulipc-stat` tool attached
// read-only — can observe a live IPC session.
//
// Concurrency design:
//  * Every slot has exactly ONE writer (the platform instance bound to it).
//    Hot-path updates are relaxed atomic adds; monotonic counters mean a
//    reader's copy is always a valid "recent past" state even mid-update.
//  * The seqlock (`seq`) guards only NON-monotonic transitions — reset and
//    (re)bind — which are the only writes that could make a concurrent copy
//    incoherent (half-zeroed counters attributed to the new incarnation).
//    Writers bracket those with write_begin()/write_end(); readers retry
//    while seq is odd or changed across the copy.
//  * Slots are cache-line padded so two endpoints' writers never false-share.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/cacheline.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace ulipc::obs {

/// Which latency-shaped quantity each of a slot's histograms tracks.
enum class HistKind : std::uint32_t {
  kRoundTripNs = 0,  // client: full send -> reply round trip
  kWakeLatencyNs,    // enqueue-at-wake -> post-sleep dequeue (cross-process)
  kSleepNs,          // time spent blocked in sem_p (step C.4)
  kSpinIters,        // BSLS bounded-spin iterations per entry
  kBatchSize,        // messages moved per batch enqueue flush
  kLoanHoldNs,       // payload plane: loan -> release hold time
  // Span-plane phase histograms (obs/span.hpp). Fed only by sampled spans
  // (1-in-2^ULIPC_SPAN_SHIFT sends), recorded with weight 1: uniform
  // sampling preserves the distribution shape, so the percentiles are
  // unbiased even though the counts undercount total traffic.
  kQueueResidencyNs,  // server: send-enqueue stamp -> dequeue
  kWakeInFlightNs,    // either side: wake issued -> sleeper's return
  kServiceNs,         // server: dequeue -> reply-enqueue
  kReplyPathNs,       // client: reply-enqueue stamp -> reply dequeued
  kMembersReady,      // waitset: members claimed ready per wait() return
  kHistKinds,
};
inline constexpr std::uint32_t kHistKinds =
    static_cast<std::uint32_t>(HistKind::kHistKinds);

constexpr const char* hist_kind_name(HistKind k) noexcept {
  switch (k) {
    case HistKind::kRoundTripNs: return "round_trip_ns";
    case HistKind::kWakeLatencyNs: return "wake_latency_ns";
    case HistKind::kSleepNs: return "sleep_ns";
    case HistKind::kSpinIters: return "spin_iters";
    case HistKind::kBatchSize: return "batch_size";
    case HistKind::kLoanHoldNs: return "loan_hold_ns";
    case HistKind::kQueueResidencyNs: return "queue_residency_ns";
    case HistKind::kWakeInFlightNs: return "wake_in_flight_ns";
    case HistKind::kServiceNs: return "service_ns";
    case HistKind::kReplyPathNs: return "reply_path_ns";
    case HistKind::kMembersReady: return "members_ready";
    case HistKind::kHistKinds: break;
  }
  return "?";
}

/// Who a slot belongs to (index conventions in ObsHeader below).
enum class SlotRole : std::uint32_t {
  kUnbound = 0,
  kServer,
  kClient,
  kPoolWorker,
  kLoadgen,  // scenario-engine client (tools/ulipc-perf)
};

constexpr const char* slot_role_name(SlotRole r) noexcept {
  switch (r) {
    case SlotRole::kUnbound: return "-";
    case SlotRole::kServer: return "server";
    case SlotRole::kClient: return "client";
    case SlotRole::kPoolWorker: return "pool";
    case SlotRole::kLoadgen: return "loadgen";
  }
  return "?";
}

/// Consistent copy of one slot (see MetricSlot::read_snapshot).
struct SlotSnapshot {
  SlotRole role = SlotRole::kUnbound;
  std::uint32_t pid = 0;
  std::uint32_t generation = 0;
  ProtocolCounters counters;
  HistogramSnapshot hist[kHistKinds];

  [[nodiscard]] const HistogramSnapshot& h(HistKind k) const noexcept {
    return hist[static_cast<std::uint32_t>(k)];
  }
  [[nodiscard]] bool bound() const noexcept {
    return role != SlotRole::kUnbound;
  }
};

/// One endpoint-owner's telemetry: identity, counters, histograms.
struct alignas(kCacheLineSize) MetricSlot {
  std::atomic<std::uint32_t> seq{0};  // odd = structural write in progress
  std::atomic<std::uint32_t> role{0};
  std::atomic<std::uint32_t> pid{0};
  std::atomic<std::uint32_t> generation{0};
  LiveCounters counters;
  LogHistogram histograms[kHistKinds];

  [[nodiscard]] LogHistogram& hist(HistKind k) noexcept {
    return histograms[static_cast<std::uint32_t>(k)];
  }

  // ---- writer side (single writer per slot) ----

  void write_begin() noexcept {
    seq.fetch_add(1, std::memory_order_acq_rel);  // -> odd
  }
  void write_end() noexcept {
    seq.fetch_add(1, std::memory_order_release);  // -> even
  }

  /// Claims the slot for a new owner: bumps the incarnation and zeroes all
  /// series so the stats are attributable to exactly one (pid, generation).
  void bind(SlotRole r, std::uint32_t owner_pid) noexcept {
    write_begin();
    role.store(static_cast<std::uint32_t>(r), std::memory_order_relaxed);
    pid.store(owner_pid, std::memory_order_relaxed);
    generation.fetch_add(1, std::memory_order_relaxed);
    counters.reset();
    for (auto& h : histograms) h.reset();
    write_end();
  }

  /// Zeroes the series without changing ownership.
  void reset_series() noexcept {
    write_begin();
    generation.fetch_add(1, std::memory_order_relaxed);
    counters.reset();
    for (auto& h : histograms) h.reset();
    write_end();
  }

  // ---- reader side (any process) ----

  /// Copies the slot, retrying while a structural write is in flight.
  /// Returns false only if the writer kept mutating structurally for the
  /// whole retry budget (the copy is then best-effort, not torn-free).
  bool read_snapshot(SlotSnapshot* out) const noexcept {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const std::uint32_t s1 = seq.load(std::memory_order_acquire);
      if (s1 & 1u) continue;
      out->role =
          static_cast<SlotRole>(role.load(std::memory_order_relaxed));
      out->pid = pid.load(std::memory_order_relaxed);
      out->generation = generation.load(std::memory_order_relaxed);
      out->counters = counters.snapshot();
      for (std::uint32_t k = 0; k < kHistKinds; ++k) {
        out->hist[k] = histograms[k].snapshot();
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq.load(std::memory_order_relaxed) == s1) return true;
    }
    return false;
  }
};

/// Channel-global recovery accounting (satellite: make reaping visible
/// post-hoc). Written under the channel's recovery lock, which serializes
/// the writers; the cells themselves are the usual relaxed counters.
struct RecoveryCounters {
  RelaxedU64 sweeps;             // reclaim_client passes that found a corpse
  RelaxedU64 drained_messages;   // messages discarded from dead clients
  RelaxedU64 nodes_reclaimed;    // leaked pool nodes swept back
  RelaxedU64 payload_slots_reclaimed;  // leaked payload loans swept back
};

/// Header of the observability block inside the channel arena. The block is
/// one contiguous allocation:
///
///   [ObsHeader][MetricSlot x slot_count][TraceRing blob x ring_count]
///
/// Slot/ring index convention (mirrors the channel's endpoint layout):
///   0                  server
///   1 .. n             clients (n = max_clients)
///   n+1 .. n+shards    pool workers (none on a single-server channel)
///   ring slot_count    the extra recovery ring (kRecovery events, written
///                      under the recovery lock by whoever reclaims)
///
/// The layout is compile-flag independent: rings are always allocated, and
/// only EMISSION is gated by ULIPC_TRACE, so a tracing-enabled tool can
/// attach to a tracing-disabled server (it sees empty rings plus the
/// `trace_compiled` flag saying why).
struct alignas(kCacheLineSize) ObsHeader {
  static constexpr std::uint64_t kMagic = 0x756c6970'636f6273ULL;  // "ulipcobs"
  // v2: LiveCounters grew loans/loan_releases, histograms grew kLoanHoldNs,
  // RecoveryCounters grew payload_slots_reclaimed — all layout changes, so
  // pre-payload-plane readers must refuse to attach.
  // v3: histograms grew the four span-plane phase kinds (kQueueResidencyNs,
  // kWakeInFlightNs, kServiceNs, kReplyPathNs) — MetricSlot layout change.
  // v4: LiveCounters grew doorbell_arms/spurious_ungates and histograms
  // grew kMembersReady (the waitset readiness plane) — layout changes.
  // v5: the thread-per-client role left SlotRole (pool workers renumbered)
  // and the worker slot range holds `shards` slots instead of max_clients.
  static constexpr std::uint32_t kVersion = 5;

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t slot_count = 0;
  std::uint32_t ring_capacity = 0;   // records per ring (power of two)
  std::uint32_t trace_compiled = 0;  // creator built with ULIPC_TRACE=ON
  std::uint64_t slots_offset = 0;    // from this header, in bytes
  std::uint64_t rings_offset = 0;
  std::uint64_t ring_stride = 0;     // bytes per ring blob

  // TSC -> wall calibration, stamped once by the channel creator so every
  // process (and the export tool) converts trace timestamps identically.
  std::atomic<std::uint64_t> tsc_ns_per_tick_bits{0};  // bit_cast<double>
  std::atomic<std::uint64_t> tsc_epoch{0};
  std::atomic<std::int64_t> mono_epoch_ns{0};

  RecoveryCounters recovery;

  [[nodiscard]] MetricSlot* slots() noexcept {
    return reinterpret_cast<MetricSlot*>(reinterpret_cast<char*>(this) +
                                         slots_offset);
  }
  [[nodiscard]] const MetricSlot* slots() const noexcept {
    return reinterpret_cast<const MetricSlot*>(
        reinterpret_cast<const char*>(this) + slots_offset);
  }
  [[nodiscard]] MetricSlot& slot(std::uint32_t i) noexcept {
    return slots()[i];
  }
  [[nodiscard]] const MetricSlot& slot(std::uint32_t i) const noexcept {
    return slots()[i];
  }

  [[nodiscard]] void* ring_blob(std::uint32_t i) noexcept {
    return reinterpret_cast<char*>(this) + rings_offset + i * ring_stride;
  }
  [[nodiscard]] const void* ring_blob(std::uint32_t i) const noexcept {
    return reinterpret_cast<const char*>(this) + rings_offset +
           i * ring_stride;
  }
  [[nodiscard]] std::uint32_t ring_count() const noexcept {
    return slot_count + 1;  // one per slot + the shared recovery ring
  }
};

}  // namespace ulipc::obs
