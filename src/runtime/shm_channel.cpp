#include "runtime/shm_channel.hpp"

#include <bit>
#include <optional>
#include <vector>

#include "common/cacheline.hpp"
#include "common/clock.hpp"
#include "queue/queue_recovery.hpp"

namespace ulipc {

namespace {

std::uint32_t round_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Metric slots: the server, one per client, one per pool worker.
std::uint32_t obs_slot_count(const ShmChannel::Config& cfg) {
  return 1 + cfg.max_clients + cfg.shards;
}

/// Total bytes of the observability block (header + slots + rings), with
/// each sub-array cache-line aligned.
std::size_t obs_block_bytes(const ShmChannel::Config& cfg) {
  const std::uint32_t slot_count = obs_slot_count(cfg);
  const std::uint32_t ring_cap = round_pow2(cfg.trace_ring_capacity);
  const std::size_t ring_stride =
      align_up(obs::TraceRing::bytes_for(ring_cap), kCacheLineSize);
  std::size_t bytes = align_up(sizeof(obs::ObsHeader), kCacheLineSize);
  bytes = align_up(bytes + slot_count * sizeof(obs::MetricSlot),
                   kCacheLineSize);
  bytes += (slot_count + 1) * ring_stride;  // +1: the shared recovery ring
  return bytes;
}

/// Concrete per-class slot count for a config (0 = auto-size so every
/// client can hold a couple of loans concurrently).
std::uint32_t payload_slots_per_class(const ShmChannel::Config& cfg) {
  if (cfg.payload_slots_per_class != 0) return cfg.payload_slots_per_class;
  return 2 * cfg.max_clients + 4;
}

/// Slots in each client reply ring: twice the queue capacity, rounded up to
/// a power of two. A full ring is the endpoint's queue-full condition.
std::uint32_t reply_ring_slots(const ShmChannel::Config& cfg) {
  return round_pow2(2 * cfg.queue_capacity);
}

/// Receive endpoints backed by a node queue: the server's and the shards'
/// whose topology picks a node engine. Ring endpoints draw no nodes.
std::uint32_t node_queue_count(const ShmChannel::Config& cfg) {
  const auto linked = [](QueueEngine e) { return e != QueueEngine::kRing; };
  return (linked(cfg.engines.server) ? 1 : 0) +
         (linked(cfg.engines.shard) ? cfg.shards : 0);
}

/// Node-pool size: every node queue full, plus its dummy and one spare
/// node. A ring-only channel has an empty pool.
std::uint32_t pool_node_count(const ShmChannel::Config& cfg) {
  return node_queue_count(cfg) * (cfg.queue_capacity + 2);
}

/// Slots in each receive ring: queue_capacity, rounded up to a power of
/// two (the ring's bound stays exactly queue_capacity).
std::uint32_t receive_ring_slots(const ShmChannel::Config& cfg) {
  return round_pow2(cfg.queue_capacity);
}

PayloadPool::Config payload_plane_config(const ShmChannel::Config& cfg) {
  PayloadPool::Config pc;
  pc.min_bytes = 64;
  pc.max_bytes = cfg.payload_max_bytes;
  pc.slots_per_class = payload_slots_per_class(cfg);
  return pc;
}

}  // namespace

std::size_t ShmChannel::required_bytes(const Config& cfg) {
  // Header + node pool + one endpoint per participant: a ring or a node
  // queue for the server and each shard, a reply ring for each client.
  // Each is rounded up for alignment, plus generous slack.
  const std::size_t receivers = 1 + cfg.shards;
  const std::size_t queues = node_queue_count(cfg);
  const std::size_t endpoints = receivers + cfg.max_clients;
  std::size_t bytes = sizeof(ArenaHeader) + sizeof(ShmChannelHeader);
  bytes += sizeof(NodePool) + pool_node_count(cfg) * sizeof(MsgNode);
  bytes += endpoints * sizeof(NativeEndpoint) + queues * sizeof(MsgQueue);
  const std::size_t receive_ring_bytes =
      sizeof(SpscRing) + receive_ring_slots(cfg) * sizeof(SpscRing::Slot);
  bytes += (receivers - queues) * receive_ring_bytes;
  bytes += cfg.max_clients * (sizeof(SpscRing) +
                              reply_ring_slots(cfg) * sizeof(SpscRing::Slot));
  bytes += (2 * endpoints + 8) * 2 * kCacheLineSize;  // alignment slack
  bytes += obs_block_bytes(cfg);                      // metrics + trace rings
  if (cfg.payload_max_bytes > 0) {
    bytes += PayloadPool::bytes_for(payload_plane_config(cfg));
  }
  return align_up(bytes * 2, 4096);                   // 2x safety margin
}

ShmChannel ShmChannel::create(ShmRegion& region, const Config& cfg) {
  ULIPC_INVARIANT(cfg.max_clients >= 1 && cfg.max_clients <= kMaxClients,
                  "bad max_clients");
  ULIPC_INVARIANT(cfg.shards <= kMaxShards && cfg.shards <= cfg.max_clients,
                  "bad shard count");
  ShmChannel ch;
  ch.arena_ = ShmArena::format(region);
  ch.header_ = ch.arena_.construct<ShmChannelHeader>();
  ch.header_->magic = ShmChannelHeader::kMagic;
  ch.header_->max_clients = cfg.max_clients;
  ch.header_->queue_capacity = cfg.queue_capacity;
  ch.header_->barrier.init(cfg.max_clients);

  // One semaphore per endpoint: index 0 for the server, 1..n for client
  // reply endpoints, n+1..n+shards for pool shard receive endpoints.
  const int sem_count = static_cast<int>(cfg.max_clients + 1 + cfg.shards);
  ch.sem_set_ = SysvSemaphoreSet::create(sem_count);
  ch.header_->sysv_sem_id = ch.sem_set_.id();
  ch.owns_sysv_ = true;

  NodePool* pool = NodePool::create(ch.arena_, pool_node_count(cfg));
  ch.header_->node_pool_offset = ch.arena_.to_offset(pool);

  // The receive endpoints — the server's, and the pool's shards — have many
  // producers, and on a pool channel several consumers (owner, thief,
  // reaper): a two-lock ring bounded at queue_capacity, or a node queue
  // when the topology's `engine` picks one. Every client reply endpoint (no
  // engine) is a ring with one consumer; its producers (the one server, or
  // on a pool channel any worker that answers the client) share it through
  // the ring's producer lock.
  auto build_endpoint = [&](std::uint32_t id, int sem_index,
                            std::optional<QueueEngine> engine) {
    auto* ep = ch.arena_.construct<NativeEndpoint>();
    if (!engine) {
      ep->ring.set(SpscRing::create(ch.arena_, reply_ring_slots(cfg)));
    } else if (*engine == QueueEngine::kRing) {
      ep->ring.set(SpscRing::create(ch.arena_, cfg.queue_capacity,
                                    SpscRing::Consumers::kShared));
    } else {
      ep->queue.set(
          MsgQueue::create(ch.arena_, pool, cfg.queue_capacity, *engine));
    }
    ep->id = id;
    ep->vsem = ch.sem_set_.handle(sem_index);
    return ch.arena_.to_offset(ep);
  };

  ch.header_->srv_ep_offset = build_endpoint(0, 0, cfg.engines.server);
  for (std::uint32_t i = 0; i < cfg.max_clients; ++i) {
    ch.header_->client_ep_offset[i] =
        build_endpoint(i, static_cast<int>(i) + 1, std::nullopt);
  }
  if (cfg.shards > 0) {
    ch.header_->num_shards = cfg.shards;
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
      ch.header_->shard_ep_offset[s] = build_endpoint(
          s, static_cast<int>(cfg.max_clients + s) + 1, cfg.engines.shard);
    }
    ch.header_->shard_map.init(cfg.shards);
  }

  // Observability block: one contiguous allocation holding the registry
  // header, the per-participant metric slots, and the per-participant trace
  // rings plus the shared recovery ring. Internal offsets are relative to
  // the ObsHeader, so a read-only attacher only needs header_->obs_offset.
  {
    const std::uint32_t slot_count = obs_slot_count(cfg);
    const std::uint32_t ring_cap = round_pow2(cfg.trace_ring_capacity);
    const std::uint64_t ring_stride =
        align_up(obs::TraceRing::bytes_for(ring_cap), kCacheLineSize);
    const std::uint64_t slots_off =
        align_up(sizeof(obs::ObsHeader), kCacheLineSize);
    const std::uint64_t rings_off = align_up(
        slots_off + slot_count * sizeof(obs::MetricSlot), kCacheLineSize);
    const std::uint64_t total = rings_off + (slot_count + 1) * ring_stride;

    const std::uint64_t obs_off =
        ch.arena_.allocate_offset(total, kCacheLineSize);
    auto* oh = new (ch.arena_.from_offset<char>(obs_off)) obs::ObsHeader();
    oh->magic = obs::ObsHeader::kMagic;
    oh->version = obs::ObsHeader::kVersion;
    oh->slot_count = slot_count;
    oh->ring_capacity = ring_cap;
    oh->trace_compiled = obs::kTraceCompiledIn ? 1 : 0;
    oh->slots_offset = slots_off;
    oh->rings_offset = rings_off;
    oh->ring_stride = ring_stride;
    for (std::uint32_t s = 0; s < slot_count; ++s) {
      new (&oh->slot(s)) obs::MetricSlot();
    }
    for (std::uint32_t r = 0; r < slot_count + 1; ++r) {
      obs::TraceRing::format(oh->ring_blob(r), ring_cap);
    }

    // Stamp the creator's TSC calibration so every attached process (and
    // the export tool) converts trace timestamps on the same scale.
    const TscClock::Calibration cal = TscClock::cached();
    oh->tsc_ns_per_tick_bits.store(
        std::bit_cast<std::uint64_t>(cal.ns_per_tick),
        std::memory_order_release);
    oh->tsc_epoch.store(cal.tsc_epoch, std::memory_order_release);
    oh->mono_epoch_ns.store(cal.mono_epoch_ns, std::memory_order_release);

    ch.header_->obs_offset = obs_off;
  }

  // Zero-copy payload plane: size-class loan buffers next to the node pool,
  // referenced by Message::ext_offset tokens.
  if (cfg.payload_max_bytes > 0) {
    PayloadPool* plane =
        PayloadPool::create(ch.arena_, payload_plane_config(cfg));
    ch.header_->payload_plane_offset = ch.arena_.to_offset(plane);
  }

  if (cfg.create_sysv_queues) {
    ch.owned_queues_.push_back(SysvMsgQueue::create());
    ch.header_->sysv_request_qid = ch.owned_queues_.back().id();
    for (std::uint32_t i = 0; i < cfg.max_clients; ++i) {
      ch.owned_queues_.push_back(SysvMsgQueue::create());
      ch.header_->sysv_reply_qid[i] = ch.owned_queues_.back().id();
    }
  }
  return ch;
}

ShmChannel ShmChannel::attach(const ShmRegion& region) {
  ShmChannel ch;
  ch.arena_ = ShmArena::attach(region);
  // The header is the arena's first allocation: directly after ArenaHeader,
  // cache-line aligned.
  auto* hdr = ch.arena_.from_offset<ShmChannelHeader>(
      align_up(sizeof(ArenaHeader), kCacheLineSize));
  ULIPC_INVARIANT(hdr->magic == ShmChannelHeader::kMagic,
                  "not a ulipc channel region");
  ch.header_ = hdr;
  ch.owns_sysv_ = false;
  return ch;
}

ShmChannel::ReclaimStats ShmChannel::reclaim_client(std::uint32_t i) noexcept {
  ReclaimStats stats;
  RobustGuard g(header_->recovery_lock);
  // Re-check under the lock: another recoverer may already have vacated
  // the seat (e.g. two pool workers both probing the same corpse).
  if (header_->client_peer[i].pid.load(std::memory_order_acquire) == 0) {
    return stats;
  }

  // Mark the seat departed before draining it. A pool worker that replies
  // to this seat after the drain below sees the mark and drains the reply
  // itself; the fence here pairs with the fence that follows every
  // producer's enqueue (Figure 4), so one side always sees the other.
  stats.departed = header_->client_departed[i].exchange(1) != 0;
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Step 1: discard the answers nobody will read from the dead client's
  // reply endpoint (see drain_reply_endpoint: the ring drain also resets
  // its index caches, so a reconnecting client reusing this seat starts
  // from coherent indices).
  stats.drained_messages += drain_reply_endpoint(i);

  // Step 2: sweep the shared node pool for nodes the corpse leaked between
  // allocate() and a queue link (or between unlink and release()), and the
  // payload plane for loans the corpse never released.
  const RecoveryStats swept = sweep_leaked();
  stats.nodes_reclaimed = swept.nodes_reclaimed;
  stats.payloads_reclaimed = swept.payloads_reclaimed;

  // Step 3: vacate the seat — the crash has been fully absorbed.
  header_->client_peer[i].pid.store(0, std::memory_order_release);
  stats.reaped = true;

  publish_recovery(i, stats.drained_messages, stats.nodes_reclaimed,
                   stats.payloads_reclaimed);
  return stats;
}

std::vector<NativeEndpoint*> ShmChannel::receive_endpoints() {
  std::vector<NativeEndpoint*> eps{&server_endpoint()};
  for (std::uint32_t s = 0; s < header_->num_shards; ++s) {
    eps.push_back(&shard_endpoint(s));
  }
  return eps;
}

std::vector<MsgQueue*> ShmChannel::all_queues() {
  std::vector<MsgQueue*> queues;
  for (NativeEndpoint* ep : receive_endpoints()) {
    if (ep->queue) queues.push_back(ep->queue.get());
  }
  return queues;
}

std::uint32_t ShmChannel::drain_reply_endpoint(std::uint32_t i) noexcept {
  SpscRing& ring = *client_endpoint(i).ring;
  // The producer lock keeps live repliers out of the ring while drain()
  // rewrites its producer-side fields; the seat's consumer is gone.
  RobustGuard producers(ring.producer_lock());
  return ring.drain();
}

RecoveryStats ShmChannel::sweep_leaked() {
  // Every ring: the client reply rings and the receive rings.
  std::vector<SpscRing*> rings;
  for (std::uint32_t c = 0; c < header_->max_clients; ++c) {
    rings.push_back(client_endpoint(c).ring.get());
  }
  for (NativeEndpoint* ep : receive_endpoints()) {
    if (ep->ring) rings.push_back(ep->ring.get());
  }
  return sweep_leaked_nodes(node_pool(), all_queues(), payload_plane(),
                            rings);
}

void ShmChannel::publish_recovery(std::uint32_t participant,
                                  std::uint32_t drained,
                                  std::uint32_t nodes_reclaimed,
                                  std::uint32_t payloads_reclaimed) noexcept {
  // The recovery lock the caller holds serializes every writer of these
  // counters and of the shared recovery ring (ring index slot_count);
  // recovery is cold-path, so it is emitted even in trace-disabled builds.
  if (!has_obs()) return;
  obs::ObsHeader& oh = obs();
  ++oh.recovery.sweeps;
  oh.recovery.drained_messages += drained;
  oh.recovery.nodes_reclaimed += nodes_reclaimed;
  oh.recovery.payload_slots_reclaimed += payloads_reclaimed;
  auto* ring = static_cast<obs::TraceRing*>(oh.ring_blob(oh.slot_count));
  ring->emit(obs::TraceEvent::kRecovery,
             static_cast<std::uint16_t>(participant), drained,
             nodes_reclaimed);
}

ShmChannel::~ShmChannel() = default;

}  // namespace ulipc
