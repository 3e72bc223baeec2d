// ulipc-stat: attach read-only to a live channel's shared memory and report
// its telemetry — per-participant counters, wake-ups per message, latency
// percentiles, recovery totals — as a table, as JSON, continuously
// (--watch), or as a Chrome trace_event file (--trace-export).
//
// The mapping is PROT_READ: this tool physically cannot perturb the channel
// it observes. Everything it prints comes from the obs block the channel
// creator laid out (obs::ObsHeader -> MetricSlots -> TraceRings); consistency
// comes from the slots' seqlocks and the rings' per-record seqno validation,
// never from stopping the writers.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "common/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/rate_tracker.hpp"
#include "obs/span.hpp"
#include "obs/trace_ring.hpp"
#include "queue/payload_pool.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/process.hpp"
#include "shm/shm_allocator.hpp"
#include "shm/shm_region.hpp"

namespace {

using namespace ulipc;

struct Options {
  std::string shm_name;
  bool json = false;
  bool watch = false;
  bool spans = false;
  int interval_ms = 1000;
  std::string trace_export;  // empty = no export
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] /shm_name\n"
               "\n"
               "Attaches read-only to a live ulipc channel and reports its\n"
               "metrics registry.\n"
               "\n"
               "  --json               one JSON document instead of the table\n"
               "  --spans              assemble cross-process spans from the\n"
               "                       trace rings and print a per-phase\n"
               "                       critical-path breakdown\n"
               "  --watch              redraw every interval until the server\n"
               "                       exits (or ^C)\n"
               "  --interval-ms=N      watch refresh period (default 1000)\n"
               "  --trace-export=FILE  write the trace rings as Chrome\n"
               "                       trace_event JSON (chrome://tracing,\n"
               "                       https://ui.perfetto.dev)\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      out->json = true;
    } else if (a == "--spans") {
      out->spans = true;
    } else if (a == "--watch") {
      out->watch = true;
    } else if (a.rfind("--interval-ms=", 0) == 0) {
      out->interval_ms = std::max(10, std::atoi(a.c_str() + 14));
    } else if (a.rfind("--trace-export=", 0) == 0) {
      out->trace_export = a.substr(15);
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else if (out->shm_name.empty()) {
      out->shm_name = a;
    } else {
      return false;
    }
  }
  return !out->shm_name.empty();
}

/// The read-only view over the mapped region. Offsets mirror what
/// ShmChannel::create laid out; nothing here mutates the mapping.
struct ChannelView {
  ShmRegion region;
  const ShmChannelHeader* channel = nullptr;
  const obs::ObsHeader* obs = nullptr;
  const PayloadPool* payload = nullptr;  // null: channel has no plane

  /// Attaching to a LIVE region that its creator may tear down at any
  /// moment: every offset is bounds-checked against the mapped size before
  /// it is dereferenced, and every magic mismatch produces a diagnostic
  /// (thrown, caught in main -> stderr + exit 1) rather than an invariant
  /// abort. A region zeroed or re-formatted mid-attach reads as garbage
  /// offsets, never as a wild pointer.
  static ChannelView open(const std::string& name) {
    ChannelView v;
    v.region = ShmRegion::open_named_readonly(name);
    const std::size_t size = v.region.size();
    const std::size_t hdr_off = align_up(sizeof(ArenaHeader), kCacheLineSize);
    if (size < hdr_off + sizeof(ShmChannelHeader)) {
      throw std::runtime_error(name + ": region too small for a channel (" +
                               std::to_string(size) +
                               " bytes) — torn down mid-attach?");
    }
    const auto* arena = v.region.at<const ArenaHeader>(0);
    if (arena->magic != ArenaHeader::kMagic) {
      throw std::runtime_error(
          name + ": bad arena magic — not a ulipc region, or the channel "
                 "was torn down mid-attach");
    }
    v.channel = v.region.at<const ShmChannelHeader>(hdr_off);
    if (v.channel->magic != ShmChannelHeader::kMagic) {
      throw std::runtime_error(
          name + ": bad channel magic — the region is not (or no longer) a "
                 "formatted ulipc channel");
    }
    if (v.channel->num_shards > kMaxShards ||
        v.channel->max_clients > kMaxClients) {
      throw std::runtime_error(name +
                               ": corrupt channel header (shard/client "
                               "counts out of range)");
    }
    for (std::uint32_t s = 0; s < v.channel->num_shards; ++s) {
      const std::uint64_t off = v.channel->shard_ep_offset[s];
      if (off == 0 || off + sizeof(NativeEndpoint) > size) {
        throw std::runtime_error(name + ": shard endpoint " +
                                 std::to_string(s) +
                                 " lies outside the mapping");
      }
    }
    if (v.channel->obs_offset == 0) {
      throw std::runtime_error(
          name + ": channel has no observability block (created by a "
                 "pre-observability binary?)");
    }
    if (v.channel->obs_offset + sizeof(obs::ObsHeader) > size) {
      throw std::runtime_error(name +
                               ": observability block lies outside the "
                               "mapping — truncated or mid-teardown");
    }
    v.obs = v.region.at<const obs::ObsHeader>(v.channel->obs_offset);
    if (v.obs->magic != obs::ObsHeader::kMagic) {
      throw std::runtime_error(name + ": bad observability block magic");
    }
    if (v.obs->version != obs::ObsHeader::kVersion) {
      throw std::runtime_error(
          name + ": observability block version " +
          std::to_string(v.obs->version) + " (this tool speaks version " +
          std::to_string(obs::ObsHeader::kVersion) + ")");
    }
    // Slot/ring arrays must fit inside the mapping: a half-initialized or
    // recycled region must not send the reader walking off the end.
    const std::uint64_t obs_base = v.channel->obs_offset;
    if (v.obs->slot_count > 4096 ||
        obs_base + v.obs->slots_offset +
                std::uint64_t{v.obs->slot_count} * sizeof(obs::MetricSlot) >
            size ||
        obs_base + v.obs->rings_offset +
                std::uint64_t{v.obs->ring_count()} * v.obs->ring_stride >
            size) {
      throw std::runtime_error(name +
                               ": observability slot/ring layout exceeds "
                               "the mapping — corrupt header");
    }
    // Payload plane (optional; channels created with payload_max_bytes=0
    // have none). All its stats accessors are plain racy loads, safe on a
    // PROT_READ mapping.
    if (v.channel->payload_plane_offset != 0) {
      if (v.channel->payload_plane_offset + sizeof(PayloadPool) > size) {
        throw std::runtime_error(name +
                                 ": payload plane lies outside the mapping "
                                 "— truncated or mid-teardown");
      }
      v.payload =
          v.region.at<const PayloadPool>(v.channel->payload_plane_offset);
      if (v.payload->class_count() > PayloadPool::kMaxClasses) {
        throw std::runtime_error(name +
                                 ": corrupt payload plane (class count out "
                                 "of range)");
      }
    }
    return v;
  }

  /// Cheap liveness re-check for --watch: the creator tearing the channel
  /// down (or recycling the region for something else) clobbers a magic.
  [[nodiscard]] bool still_valid() const noexcept {
    const auto* arena = region.at<const ArenaHeader>(0);
    return arena->magic == ArenaHeader::kMagic &&
           channel->magic == ShmChannelHeader::kMagic &&
           obs->magic == obs::ObsHeader::kMagic;
  }

  [[nodiscard]] const obs::TraceRing* ring(std::uint32_t i) const {
    return static_cast<const obs::TraceRing*>(obs->ring_blob(i));
  }

  /// Pool channels only: shard s's receive endpoint (read-only; OffsetPtr
  /// resolves relative to the mapping, so depth reads work from here too).
  [[nodiscard]] const NativeEndpoint* shard_ep(std::uint32_t s) const {
    return region.at<const NativeEndpoint>(channel->shard_ep_offset[s]);
  }

  [[nodiscard]] TscClock::Calibration calibration() const {
    TscClock::Calibration c;
    c.ns_per_tick = std::bit_cast<double>(
        obs->tsc_ns_per_tick_bits.load(std::memory_order_acquire));
    if (c.ns_per_tick <= 0.0) c.ns_per_tick = 1.0;
    c.tsc_epoch = obs->tsc_epoch.load(std::memory_order_acquire);
    c.mono_epoch_ns = obs->mono_epoch_ns.load(std::memory_order_acquire);
    return c;
  }
};

/// Messages this participant has moved: sends for clients, receives for a
/// server or pool worker — max covers both.
std::uint64_t slot_messages(const ProtocolCounters& c) {
  return std::max(c.sends, c.receives);
}

/// Total trace records lost to ring wrap across every ring. First-class
/// because span assembly silently degrades when records are overwritten —
/// a nonzero count tells the reader how much to trust the stitching.
std::uint64_t total_records_dropped(const ChannelView& v) {
  std::uint64_t dropped = 0;
  for (std::uint32_t r = 0; r < v.obs->ring_count(); ++r) {
    dropped += v.ring(r)->records_dropped();
  }
  return dropped;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---- shard balance (pool channels) ----

const char* shard_state_name(std::uint32_t st) {
  switch (st) {
    case PoolShardMap::kActive: return "active";
    case PoolShardMap::kRetired: return "retired";
    default: return "vacant";
  }
}

void print_shards(const ChannelView& v) {
  const std::uint32_t n = v.channel->num_shards;
  if (n == 0) return;
  const PoolShardMap& map = v.channel->shard_map;
  std::printf("\nshards: %u  epoch=%u  departed=%u\n", n,
              map.epoch.load(std::memory_order_acquire),
              v.channel->pool_disconnected.load(std::memory_order_acquire));
  std::printf("%-5s %-8s %-8s %7s %8s %8s %8s %9s\n", "shard", "state",
              "wrk-pid", "depth", "clients", "steals", "stolen", "migrated");
  for (std::uint32_t s = 0; s < n; ++s) {
    const PoolShardMap::Shard& sh = map.shards[s];
    std::printf(
        "%-5u %-8s %-8u %7u %8u %8llu %8llu %9llu\n", s,
        shard_state_name(sh.state.load(std::memory_order_acquire)),
        v.channel->worker_peer[s].pid.load(std::memory_order_acquire),
        v.shard_ep(s)->queue.get()->size(),
        sh.assigned.load(std::memory_order_acquire),
        static_cast<unsigned long long>(
            sh.steal_passes.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            sh.stolen_msgs.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            sh.migrated_msgs.load(std::memory_order_relaxed)));
  }
}

// ---- payload plane (channels with a zero-copy payload plane) ----

void print_payload(const ChannelView& v) {
  const PayloadPool* p = v.payload;
  if (p == nullptr) return;
  std::printf("\npayload plane: %u classes, %u/%u slots free, %u loan(s) "
              "outstanding\n",
              p->class_count(), p->free_count(), p->capacity(),
              p->loans_outstanding());
  std::printf("%-5s %9s %6s %6s %6s %10s\n", "class", "slot-B", "slots",
              "free", "inuse", "high-water");
  for (std::uint32_t c = 0; c < p->class_count(); ++c) {
    const std::uint32_t cap = p->class_capacity(c);
    const std::uint32_t free = p->class_free(c);
    // Racy reads: free can transiently read past cap mid-update; clamp
    // rather than print a wrapped-around in-use count.
    std::printf("%-5u %9u %6u %6u %6u %10u\n", c, p->class_slot_bytes(c),
                cap, free, free <= cap ? cap - free : 0,
                p->class_high_water(c));
  }
}

// ---- table output ----

/// `rates` non-null only in --watch mode: rates need two snapshots of the
/// same series, and the tracker re-baselines (printing "-") for one
/// refresh whenever a slot's generation bumps (reset_series / re-bind)
/// instead of showing the delta across the reset as a giant spike.
void print_table(const ChannelView& v, obs::RateTracker* rates = nullptr,
                 std::int64_t now_ns = 0) {
  std::printf("%-4s %-7s %-8s %9s %7s %7s %9s %8s %8s %9s %9s %9s", "slot",
              "role", "pid", "msgs", "wk/msg", "coal", "sleeps", "spin-p50",
              "spin-p99", "rt-p50us", "rt-p99us", "slp-p50us");
  if (rates != nullptr) std::printf(" %9s", "msg/s");
  std::printf("\n");
  for (std::uint32_t i = 0; i < v.obs->slot_count; ++i) {
    obs::SlotSnapshot s;
    if (!v.obs->slot(i).read_snapshot(&s) || !s.bound()) continue;
    const std::uint64_t msgs = slot_messages(s.counters);
    std::printf(
        "%-4u %-7s %-8u %9llu %7.3f %7llu %9llu %8.0f %8.0f %9.2f %9.2f "
        "%9.1f",
        i, obs::slot_role_name(s.role), s.pid,
        static_cast<unsigned long long>(msgs),
        ratio(s.counters.wakeups, msgs),
        static_cast<unsigned long long>(s.counters.wakeups_coalesced),
        static_cast<unsigned long long>(s.counters.blocks),
        s.h(obs::HistKind::kSpinIters).percentile(50),
        s.h(obs::HistKind::kSpinIters).percentile(99),
        s.h(obs::HistKind::kRoundTripNs).percentile(50) / 1e3,
        s.h(obs::HistKind::kRoundTripNs).percentile(99) / 1e3,
        s.h(obs::HistKind::kSleepNs).percentile(50) / 1e3);
    if (rates != nullptr) {
      const obs::RateSample r = rates->update(i, s.generation, msgs,
                                              s.counters.wakeups, now_ns);
      if (r.valid) {
        std::printf(" %9.0f", r.msgs_per_s);
      } else {
        std::printf(" %9s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "recovery: sweeps=%llu drained=%llu nodes=%llu payloads=%llu   "
      "trace=%s (ring %u x %u rec, records_dropped=%llu)\n",
      static_cast<unsigned long long>(v.obs->recovery.sweeps.load()),
      static_cast<unsigned long long>(v.obs->recovery.drained_messages.load()),
      static_cast<unsigned long long>(v.obs->recovery.nodes_reclaimed.load()),
      static_cast<unsigned long long>(
          v.obs->recovery.payload_slots_reclaimed.load()),
      v.obs->trace_compiled ? "on" : "off", v.obs->ring_count(),
      v.obs->ring_capacity,
      static_cast<unsigned long long>(total_records_dropped(v)));
  print_payload(v);
  print_shards(v);
}

// ---- JSON output ----

void json_counters(std::FILE* f, const ProtocolCounters& c) {
  std::fprintf(
      f,
      "{\"sends\":%llu,\"receives\":%llu,\"replies\":%llu,\"blocks\":%llu,"
      "\"wakeups\":%llu,\"yields\":%llu,\"busy_waits\":%llu,\"polls\":%llu,"
      "\"spin_entries\":%llu,\"spin_iters\":%llu,\"spin_fallthroughs\":%llu,"
      "\"sem_absorbs\":%llu,\"full_sleeps\":%llu,\"timeouts\":%llu,"
      "\"batch_enqueues\":%llu,\"batch_dequeues\":%llu,"
      "\"wakeups_coalesced\":%llu,\"adaptive_updates\":%llu,"
      "\"steals\":%llu,\"stolen_msgs\":%llu,\"migrated_msgs\":%llu,"
      "\"retries\":%llu,\"sheds\":%llu,"
      "\"loans\":%llu,\"loan_releases\":%llu}",
      static_cast<unsigned long long>(c.sends),
      static_cast<unsigned long long>(c.receives),
      static_cast<unsigned long long>(c.replies),
      static_cast<unsigned long long>(c.blocks),
      static_cast<unsigned long long>(c.wakeups),
      static_cast<unsigned long long>(c.yields),
      static_cast<unsigned long long>(c.busy_waits),
      static_cast<unsigned long long>(c.polls),
      static_cast<unsigned long long>(c.spin_entries),
      static_cast<unsigned long long>(c.spin_iters),
      static_cast<unsigned long long>(c.spin_fallthroughs),
      static_cast<unsigned long long>(c.sem_absorbs),
      static_cast<unsigned long long>(c.full_sleeps),
      static_cast<unsigned long long>(c.timeouts),
      static_cast<unsigned long long>(c.batch_enqueues),
      static_cast<unsigned long long>(c.batch_dequeues),
      static_cast<unsigned long long>(c.wakeups_coalesced),
      static_cast<unsigned long long>(c.adaptive_updates),
      static_cast<unsigned long long>(c.steals),
      static_cast<unsigned long long>(c.stolen_msgs),
      static_cast<unsigned long long>(c.migrated_msgs),
      static_cast<unsigned long long>(c.retries),
      static_cast<unsigned long long>(c.sheds),
      static_cast<unsigned long long>(c.loans),
      static_cast<unsigned long long>(c.loan_releases));
}

void json_hist(std::FILE* f, const obs::HistogramSnapshot& h) {
  std::fprintf(f,
               "{\"count\":%llu,\"mean\":%.1f,\"p50\":%.1f,\"p95\":%.1f,"
               "\"p99\":%.1f,\"max\":%.1f}",
               static_cast<unsigned long long>(h.count), h.mean(),
               h.percentile(50), h.percentile(95), h.percentile(99),
               h.percentile(100));
}

void print_json(std::FILE* f, const ChannelView& v) {
  std::fprintf(f,
               "{\"slot_count\":%u,\"ring_capacity\":%u,\"trace_compiled\":%s,"
               "\"records_dropped\":%llu,"
               "\"recovery\":{\"sweeps\":%llu,\"drained_messages\":%llu,"
               "\"nodes_reclaimed\":%llu,\"payload_slots_reclaimed\":%llu},"
               "\"slots\":[",
               v.obs->slot_count, v.obs->ring_capacity,
               v.obs->trace_compiled ? "true" : "false",
               static_cast<unsigned long long>(total_records_dropped(v)),
               static_cast<unsigned long long>(v.obs->recovery.sweeps.load()),
               static_cast<unsigned long long>(
                   v.obs->recovery.drained_messages.load()),
               static_cast<unsigned long long>(
                   v.obs->recovery.nodes_reclaimed.load()),
               static_cast<unsigned long long>(
                   v.obs->recovery.payload_slots_reclaimed.load()));
  bool first = true;
  for (std::uint32_t i = 0; i < v.obs->slot_count; ++i) {
    obs::SlotSnapshot s;
    if (!v.obs->slot(i).read_snapshot(&s) || !s.bound()) continue;
    std::fprintf(f, "%s{\"slot\":%u,\"role\":\"%s\",\"pid\":%u,"
                    "\"generation\":%u,\"wk_per_msg\":%.6f,\"counters\":",
                 first ? "" : ",", i, obs::slot_role_name(s.role), s.pid,
                 s.generation,
                 ratio(s.counters.wakeups, slot_messages(s.counters)));
    first = false;
    json_counters(f, s.counters);
    std::fprintf(f, ",\"hist\":{");
    for (std::uint32_t k = 0; k < obs::kHistKinds; ++k) {
      std::fprintf(f, "%s\"%s\":", k == 0 ? "" : ",",
                   obs::hist_kind_name(static_cast<obs::HistKind>(k)));
      json_hist(f, s.hist[k]);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "]");
  if (v.channel->num_shards > 0) {
    const PoolShardMap& map = v.channel->shard_map;
    std::fprintf(f, ",\"num_shards\":%u,\"shard_epoch\":%u,\"departed\":%u,"
                    "\"shards\":[",
                 v.channel->num_shards,
                 map.epoch.load(std::memory_order_acquire),
                 v.channel->pool_disconnected.load(std::memory_order_acquire));
    for (std::uint32_t s = 0; s < v.channel->num_shards; ++s) {
      const PoolShardMap::Shard& sh = map.shards[s];
      std::fprintf(
          f,
          "%s{\"shard\":%u,\"state\":\"%s\",\"worker_pid\":%u,\"depth\":%u,"
          "\"assigned\":%u,\"steal_passes\":%llu,\"stolen_msgs\":%llu,"
          "\"migrated_msgs\":%llu}",
          s == 0 ? "" : ",", s,
          shard_state_name(sh.state.load(std::memory_order_acquire)),
          v.channel->worker_peer[s].pid.load(std::memory_order_acquire),
          v.shard_ep(s)->queue.get()->size(),
          sh.assigned.load(std::memory_order_acquire),
          static_cast<unsigned long long>(
              sh.steal_passes.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              sh.stolen_msgs.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              sh.migrated_msgs.load(std::memory_order_relaxed)));
    }
    std::fprintf(f, "]");
  }
  if (v.payload != nullptr) {
    const PayloadPool* p = v.payload;
    std::fprintf(f,
                 ",\"payload\":{\"classes\":%u,\"slots\":%u,\"free\":%u,"
                 "\"loans_outstanding\":%u,\"class_stats\":[",
                 p->class_count(), p->capacity(), p->free_count(),
                 p->loans_outstanding());
    for (std::uint32_t c = 0; c < p->class_count(); ++c) {
      std::fprintf(f,
                   "%s{\"slot_bytes\":%u,\"slots\":%u,\"free\":%u,"
                   "\"high_water\":%u}",
                   c == 0 ? "" : ",", p->class_slot_bytes(c),
                   p->class_capacity(c), p->class_free(c),
                   p->class_high_water(c));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "}\n");
}

// ---- span assembly (--spans) ----

/// Stitches every ring's span records into cross-process spans and prints
/// the critical-path phase breakdown. Phase durations come from COMPLETE
/// spans (all four backbone edges present and monotonic); the wake phases
/// additionally require both halves of their issue/deliver pair, which are
/// legitimately absent when the receiver never slept — their lower counts
/// are signal (that many wakes actually hit a sleeper), not loss.
int print_spans(const ChannelView& v) {
  if (!v.obs->trace_compiled) {
    std::fprintf(stderr,
                 "ulipc-stat: warning: trace rings compiled out in the "
                 "channel creator (ULIPC_TRACE=OFF) — no span records to "
                 "assemble\n");
  }
  std::vector<obs::TraceRecordView> records;
  std::vector<char> ring_has_spans(v.obs->ring_count(), 0);
  for (std::uint32_t r = 0; r < v.obs->ring_count(); ++r) {
    for (const obs::TraceRecordView& rec : v.ring(r)->read_all()) {
      if (!obs::is_span_event(rec.event)) continue;
      records.push_back(rec);
      ring_has_spans[r] = 1;
    }
  }
  const std::uint32_t rings_contributing = static_cast<std::uint32_t>(
      std::count(ring_has_spans.begin(), ring_has_spans.end(), 1));
  const std::vector<obs::Span> spans = obs::assemble_spans(std::move(records));

  std::uint64_t complete = 0;
  std::vector<std::uint64_t> queue_res, wake_req, service, wake_rep,
      reply_path, total;
  const double ns_per_tick = v.calibration().ns_per_tick;
  auto ns = [&](std::uint64_t ticks) {
    return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                      ns_per_tick);
  };
  for (const obs::Span& s : spans) {
    if (!s.complete()) continue;
    ++complete;
    queue_res.push_back(ns(s.queue_residency()));
    service.push_back(ns(s.service()));
    reply_path.push_back(ns(s.reply_path()));
    total.push_back(ns(s.total()));
    if (s.wake_in_flight_req() != 0) wake_req.push_back(ns(s.wake_in_flight_req()));
    if (s.wake_in_flight_rep() != 0) wake_rep.push_back(ns(s.wake_in_flight_rep()));
  }

  std::printf(
      "spans: %zu assembled (%llu complete, %llu partial) from %u ring(s); "
      "records_dropped=%llu\n",
      spans.size(), static_cast<unsigned long long>(complete),
      static_cast<unsigned long long>(spans.size() - complete),
      rings_contributing,
      static_cast<unsigned long long>(total_records_dropped(v)));
  if (complete == 0) {
    std::printf("(no complete spans — is the channel idle, or spans fully "
                "decimated? try ULIPC_SPAN_SHIFT=0 on the participants)\n");
    return v.obs->trace_compiled ? 0 : 1;
  }
  std::printf("%-18s %9s %10s %10s %10s\n", "phase", "count", "p50-us",
              "p95-us", "p99-us");
  auto row = [](const char* name, std::vector<std::uint64_t>& samples) {
    const std::size_t n = samples.size();
    const double p50 = static_cast<double>(obs::percentile_of(samples, 50));
    const double p95 = static_cast<double>(obs::percentile_of(samples, 95));
    const double p99 = static_cast<double>(obs::percentile_of(samples, 99));
    std::printf("%-18s %9zu %10.2f %10.2f %10.2f\n", name, n, p50 / 1e3,
                p95 / 1e3, p99 / 1e3);
  };
  row("queue-residency", queue_res);
  row("wake-in-flight", wake_req);
  row("service", service);
  row("reply-wake", wake_rep);
  row("reply-path", reply_path);
  row("total", total);
  return 0;
}

// ---- Chrome trace export ----

struct MergedRecord {
  obs::TraceRecordView rec;
  std::uint32_t ring = 0;
};

/// Writes every validated trace record as Chrome trace_event JSON. Sleep
/// begin/end pairs become "complete" (ph X) spans so the blocked intervals
/// are visible bars; everything else is an instant. pid groups by the
/// owning participant's recorded pid, tid is the obs slot index.
int export_trace(const ChannelView& v, const std::string& path) {
  std::vector<MergedRecord> all;
  for (std::uint32_t r = 0; r < v.obs->ring_count(); ++r) {
    for (const obs::TraceRecordView& rec : v.ring(r)->read_all()) {
      all.push_back({rec, r});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const MergedRecord& a, const MergedRecord& b) {
              return a.rec.tsc < b.rec.tsc;
            });

  const TscClock::Calibration cal = v.calibration();
  auto ts_us = [&](std::uint64_t tsc) {
    return static_cast<double>(cal.to_mono_ns(tsc)) / 1e3;
  };
  auto slot_pid = [&](std::uint16_t slot) -> std::uint32_t {
    if (slot >= v.obs->slot_count) return 0;  // recovery ring
    return v.obs->slot(slot).pid.load(std::memory_order_relaxed);
  };

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ulipc-stat: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

  // In-flight sleep-begin per slot (single consumer per endpoint: sleeps
  // never nest within one slot).
  std::vector<double> sleep_begin_us(v.obs->slot_count + 1, -1.0);
  bool first = true;
  char buf[256];
  std::uint64_t spans = 0, instants = 0, flows = 0;
  for (const MergedRecord& m : all) {
    const obs::TraceRecordView& rec = m.rec;
    const std::uint16_t slot = rec.slot;
    const double t = ts_us(rec.tsc);
    if (rec.event == obs::TraceEvent::kSleepBegin && slot <= v.obs->slot_count) {
      sleep_begin_us[slot] = t;
      continue;  // materialized by the matching end
    }
    if (rec.event == obs::TraceEvent::kSleepEnd && slot <= v.obs->slot_count &&
        sleep_begin_us[slot] >= 0.0) {
      const double b = sleep_begin_us[slot];
      sleep_begin_us[slot] = -1.0;
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"sleep\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,\"args\":{"
                    "\"endpoint\":%u,\"timed_out\":%llu}}",
                    first ? "" : ",", b, std::max(0.0, t - b), slot_pid(slot),
                    slot, rec.arg_a,
                    static_cast<unsigned long long>(rec.arg_b));
      out << buf;
      first = false;
      ++spans;
      continue;
    }
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                  "\"pid\":%u,\"tid\":%u,\"args\":{\"a\":%u,\"b\":%llu}}",
                  first ? "" : ",", obs::trace_event_name(rec.event), t,
                  slot_pid(slot), slot, rec.arg_a,
                  static_cast<unsigned long long>(rec.arg_b));
    out << buf;
    first = false;
    ++instants;
    // Span records additionally become Chrome FLOW events keyed by the
    // span id, so one request draws as a connected arrow across the
    // participating processes' tracks: "s" opens the flow at send, "t"
    // steps it through every intermediate phase edge, and "f" (binding to
    // the enclosing slice) closes it at reply receipt.
    if (obs::is_span_event(rec.event)) {
      const char* ph = rec.event == obs::TraceEvent::kSpanSend ? "s"
                       : rec.event == obs::TraceEvent::kSpanReplyRecv ? "f"
                                                                      : "t";
      std::snprintf(buf, sizeof buf,
                    ",{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"%s\","
                    "%s\"id\":\"0x%llx\",\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    ph,
                    rec.event == obs::TraceEvent::kSpanReplyRecv
                        ? "\"bp\":\"e\","
                        : "",
                    static_cast<unsigned long long>(rec.arg_b), t,
                    slot_pid(slot), slot);
      out << buf;
      ++flows;
    }
  }
  out << "]}\n";
  out.close();
  std::fprintf(stderr,
               "ulipc-stat: exported %llu sleep spans + %llu instants + "
               "%llu flow events -> %s\n",
               static_cast<unsigned long long>(spans),
               static_cast<unsigned long long>(instants),
               static_cast<unsigned long long>(flows), path.c_str());
  return 0;
}

bool server_alive(const ChannelView& v) {
  const std::uint32_t pid =
      v.channel->server_peer.pid.load(std::memory_order_acquire);
  return pid != 0 && process_alive(pid);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage(argv[0]);

  try {
    ChannelView view = ChannelView::open(opt.shm_name);

    if (!opt.trace_export.empty()) {
      return export_trace(view, opt.trace_export);
    }
    if (opt.spans) {
      return print_spans(view);
    }
    if (opt.watch) {
      obs::RateTracker rates;
      for (;;) {
        // The creator can tear the channel down (or recycle the region)
        // between refreshes; a clobbered magic means every offset we cached
        // is suspect, so bail with a diagnostic instead of reading garbage.
        if (!view.still_valid()) {
          std::fprintf(stderr,
                       "\nulipc-stat: %s: channel torn down or re-created "
                       "during --watch (header magic changed) — detaching\n",
                       opt.shm_name.c_str());
          return 1;
        }
        std::printf("\033[H\033[2J");  // clear + home
        std::printf("ulipc-stat %s  (refresh %d ms; ^C to quit)\n\n",
                    opt.shm_name.c_str(), opt.interval_ms);
        if (!view.obs->trace_compiled) {
          std::printf("warning: trace rings compiled out in the channel "
                      "creator (ULIPC_TRACE=OFF) — trace-derived data stays "
                      "empty\n\n");
        }
        const std::int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        print_table(view, &rates, now_ns);
        std::fflush(stdout);
        if (!server_alive(view)) {
          std::printf("\n(server seat empty or dead — final snapshot)\n");
          return 0;
        }
        sleep_ns_eintr(static_cast<std::int64_t>(opt.interval_ms) * 1'000'000);
      }
    }
    if (opt.json) {
      print_json(stdout, view);
    } else {
      print_table(view);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ulipc-stat: %s\n", e.what());
    return 1;
  }
}
