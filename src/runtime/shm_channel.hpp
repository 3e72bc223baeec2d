// Shared-memory channel layout: everything a server and up to kMaxClients
// clients need, carved out of one region.
//
// Layout (all inside one ShmArena, discoverable from the header at the
// arena's first allocation):
//   header { magic, config, endpoint offsets, SysV ids, barrier, reports }
//   node pool (shared by all queues)
//   server endpoint + queue
//   per-client endpoint + queue
//
// The same region works for fork()-children (anonymous mapping) and for
// unrelated processes (named POSIX shm + attach()), because all internal
// references are offset-based.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "protocols/channel.hpp"
#include "protocols/platform.hpp"
#include "protocols/shard_map.hpp"
#include "queue/msg_pool.hpp"
#include "queue/msg_queue.hpp"
#include "queue/payload_pool.hpp"
#include "queue/queue_engine.hpp"
#include "runtime/native_platform.hpp"
#include "shm/process.hpp"
#include "shm/robust_spinlock.hpp"
#include "shm/shm_allocator.hpp"
#include "shm/shm_barrier.hpp"
#include "shm/shm_region.hpp"
#include "shm/sysv_msg_queue.hpp"
#include "shm/sysv_semaphore.hpp"

namespace ulipc {

inline constexpr std::uint32_t kMaxClients = 16;

/// Upper bound on server-pool receive shards (one per worker). A channel's
/// actual shard count is Config::shards <= min(kMaxShards, max_clients).
inline constexpr std::uint32_t kMaxShards = 8;

/// The placement table embedded in ShmChannelHeader (see shard_map.hpp).
using PoolShardMap = ShardMap<kMaxShards, kMaxClients>;

/// Per-process measurement report written into shared memory at the end of
/// a run (children cannot return rich values through exit codes).
struct ShmReport {
  ServerResult server;          // server process only
  std::uint64_t verified = 0;   // clients: correctly echoed replies
  ProtocolCounters counters;
  CtxSwitches ctx_start;
  CtxSwitches ctx_end;
  std::int64_t wall_start_ns = 0;
  std::int64_t wall_end_ns = 0;

  [[nodiscard]] CtxSwitches ctx_delta() const noexcept {
    return ctx_end - ctx_start;
  }
};

/// Liveness registry entry for one channel participant. `pid` is 0 while
/// the seat is vacant (never connected, or cleanly deregistered); a nonzero
/// pid naming a dead process means the participant crashed and its
/// resources need reclaiming. `generation` bumps on every (re)registration
/// so a reconnecting client is distinguishable from the incarnation that
/// crashed in its seat.
struct PeerSlot {
  std::atomic<std::uint32_t> pid{0};
  std::atomic<std::uint32_t> generation{0};
};

struct ShmChannelHeader {
  static constexpr std::uint64_t kMagic = 0x756c6970'63636831ULL;
  std::uint64_t magic = 0;
  std::uint32_t max_clients = 0;
  std::uint32_t queue_capacity = 0;
  ShmBarrier barrier;

  // Who is (supposed to be) alive on this channel, and the lock that
  // serializes recovery sweeps (a RobustSpinlock so recovery itself
  // survives the recoverer dying).
  PeerSlot server_peer;
  PeerSlot client_peer[kMaxClients];
  RobustSpinlock recovery_lock;
  std::uint64_t node_pool_offset = 0;

  std::uint64_t srv_ep_offset = 0;
  std::uint64_t client_ep_offset[kMaxClients] = {};  // reply direction

  // SysV object ids (semaphores for endpoints; message queues for the
  // kernel-mediated baseline transport). Valid process-wide on this host.
  int sysv_sem_id = -1;
  int sysv_request_qid = -1;
  int sysv_reply_qid[kMaxClients] = {};

  ShmReport server_report;
  ShmReport client_report[kMaxClients];

  // Offset of the obs::ObsHeader block (metrics registry + trace rings);
  // 0 on regions formatted by pre-observability binaries.
  std::uint64_t obs_offset = 0;

  // Offset of the zero-copy payload plane (queue/payload_pool.hpp); 0 when
  // the channel was created with payload_max_bytes == 0.
  std::uint64_t payload_plane_offset = 0;

  // ---- server pool: sharded receive ----
  //
  // num_shards == 0 is the classic single-receive-queue channel. A pool
  // channel carves one MPSC receive endpoint per worker out of the same
  // arena, publishes the worker liveness registry next to the client one,
  // and embeds the placement table every participant consults.
  std::uint32_t num_shards = 0;
  std::uint64_t shard_ep_offset[kMaxShards] = {};
  PeerSlot worker_peer[kMaxShards];
  PoolShardMap shard_map;
  // Pool-wide count of clients that left (clean disconnects served by any
  // worker, plus crashed clients reaped on an idle tick): every worker's
  // termination condition, since no single worker sees all disconnects.
  std::atomic<std::uint32_t> pool_disconnected{0};
  // One flag per client seat, set when a worker serves the seat's
  // kDisconnect or when reclaim_client reaps the seat, and cleared again on
  // kConnect. Lets the crash reaper tell "disconnected cleanly, then died
  // before deregistering its peer slot" from "crashed while connected": the
  // first kind was already counted in pool_disconnected by the worker that
  // served the disconnect, so the reaper must reclaim the seat WITHOUT
  // counting a second departure. Workers also read it after replying, to
  // catch a reply that landed in a reaped seat's queue after its drain.
  std::atomic<std::uint8_t> client_departed[kMaxClients] = {};
};

/// Creates/attaches the channel structures. The creator owns the SysV
/// objects (they are removed when the creator's ShmChannel is destroyed).
class ShmChannel {
 public:
  struct Config {
    std::uint32_t max_clients = 4;
    std::uint32_t queue_capacity = 64;
    bool create_sysv_queues = false;  // allocate the SysV baseline transport
    std::uint32_t trace_ring_capacity = 1024;  // records per trace ring
                                               // (rounded up to a power of 2)
    std::uint32_t shards = 0;  // > 0 builds a server-pool channel with one
                               // receive queue per worker; <= max_clients.
                               // shards == clients with each client forced
                               // onto its own shard is the paper's thread-
                               // per-client architecture (paper 2.1)
    // Zero-copy payload plane: size classes 64 B .. payload_max_bytes
    // (geometric), payload_slots_per_class slots each (0 = auto-size from
    // max_clients). payload_max_bytes == 0 builds no plane at all.
    std::uint32_t payload_max_bytes = 4096;
    std::uint32_t payload_slots_per_class = 0;
    // Which queue engine backs each endpoint topology (see
    // queue/queue_engine.hpp). Defaults honor the compile-time default plus
    // the ULIPC_QUEUE_ENGINE environment override, so CI/bench pinning
    // needs no code change; embedders can still set fields explicitly.
    QueueEnginePolicy engines = QueueEnginePolicy::from_env();
  };

  /// Formats `region` and builds all channel structures inside it.
  static ShmChannel create(ShmRegion& region, const Config& cfg);

  /// Attaches to a channel previously built in `region` (e.g. from a
  /// process that mapped the same named shm object).
  static ShmChannel attach(const ShmRegion& region);

  ShmChannel(ShmChannel&&) = default;
  ShmChannel& operator=(ShmChannel&&) = default;
  ShmChannel(const ShmChannel&) = delete;
  ShmChannel& operator=(const ShmChannel&) = delete;
  ~ShmChannel();

  [[nodiscard]] ShmChannelHeader& header() noexcept { return *header_; }
  [[nodiscard]] NativeEndpoint& server_endpoint() noexcept {
    return *arena_.from_offset<NativeEndpoint>(header_->srv_ep_offset);
  }
  [[nodiscard]] NativeEndpoint& client_endpoint(std::uint32_t i) noexcept {
    return *arena_.from_offset<NativeEndpoint>(header_->client_ep_offset[i]);
  }
  [[nodiscard]] ShmBarrier& barrier() noexcept { return header_->barrier; }

  // ---- server pool ----

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return header_->num_shards;
  }
  /// Pool channels only: the receive endpoint worker `s` owns. All of a
  /// shard's clients (and any thief worker's dequeue_batch) share it, so it
  /// is MPSC and carries no SPSC ring.
  [[nodiscard]] NativeEndpoint& shard_endpoint(std::uint32_t s) {
    ULIPC_INVARIANT(s < header_->num_shards && header_->shard_ep_offset[s] != 0,
                    "not a pool channel / bad shard index");
    return *arena_.from_offset<NativeEndpoint>(header_->shard_ep_offset[s]);
  }
  [[nodiscard]] PoolShardMap& shard_map() noexcept {
    return header_->shard_map;
  }

  /// The node pool all of this channel's queues draw from.
  [[nodiscard]] NodePool& node_pool() noexcept {
    return *arena_.from_offset<NodePool>(header_->node_pool_offset);
  }

  /// The zero-copy payload plane, or nullptr on channels created with
  /// payload_max_bytes == 0 (every recovery call site passes this pointer
  /// straight through, so plane-less channels keep the old behavior).
  [[nodiscard]] PayloadPool* payload_plane() noexcept {
    if (header_->payload_plane_offset == 0) return nullptr;
    return arena_.from_offset<PayloadPool>(header_->payload_plane_offset);
  }
  [[nodiscard]] bool has_payload_plane() const noexcept {
    return header_->payload_plane_offset != 0;
  }

  // ---- observability ----

  /// False on regions formatted by binaries predating the registry.
  [[nodiscard]] bool has_obs() const noexcept {
    return header_->obs_offset != 0;
  }
  [[nodiscard]] obs::ObsHeader& obs() noexcept {
    return *arena_.from_offset<obs::ObsHeader>(header_->obs_offset);
  }
  [[nodiscard]] const obs::ObsHeader& obs() const noexcept {
    return *arena_.from_offset<const obs::ObsHeader>(header_->obs_offset);
  }

  // Metric-slot / trace-ring index convention (matches ObsHeader's doc):
  // 0 = server, 1..n = clients, n+1..n+shards = pool workers.
  [[nodiscard]] static std::uint32_t server_obs_slot() noexcept { return 0; }
  [[nodiscard]] std::uint32_t client_obs_slot(std::uint32_t i) const noexcept {
    return 1 + i;
  }
  /// Pool worker `s`'s slot (under its historical name, which external
  /// readers such as the repository benchmark still call).
  [[nodiscard]] std::uint32_t duplex_obs_slot(std::uint32_t s) const noexcept {
    return 1 + header_->max_clients + s;
  }

  /// Claims an obs slot for the calling process/thread and points the
  /// platform's telemetry at it. No-ops (platform stays on its private
  /// local slot) when the region has no obs block.
  void bind_server_obs(NativePlatform& p) noexcept {
    bind_obs_slot(p, server_obs_slot(), obs::SlotRole::kServer);
  }
  void bind_client_obs(NativePlatform& p, std::uint32_t i) noexcept {
    bind_obs_slot(p, client_obs_slot(i), obs::SlotRole::kClient);
  }
  void bind_pool_worker_obs(NativePlatform& p, std::uint32_t s) noexcept {
    bind_obs_slot(p, duplex_obs_slot(s), obs::SlotRole::kPoolWorker);
  }
  /// Scenario-engine clients (ulipc-perf) take the client slot but tag it
  /// with the loadgen role, so ulipc-stat can tell synthetic traffic apart.
  void bind_loadgen_obs(NativePlatform& p, std::uint32_t i) noexcept {
    bind_obs_slot(p, client_obs_slot(i), obs::SlotRole::kLoadgen);
  }

  // ---- peer liveness registry ----

  /// Registers the calling process in the server seat.
  void register_server() noexcept { seat(header_->server_peer, robust_self_pid()); }
  /// Registers the calling process in client seat `i`.
  void register_client(std::uint32_t i) noexcept {
    seat(header_->client_peer[i], robust_self_pid());
  }
  /// Registers an arbitrary pid in client seat `i` — lets a parent register
  /// a child right at spawn, with no window where a crash is invisible.
  void register_client_pid(std::uint32_t i, std::uint32_t pid) noexcept {
    seat(header_->client_peer[i], pid);
  }
  /// Clean departure: vacates the seat so the peer no longer reads as
  /// crashed once its process exits.
  void deregister_server() noexcept {
    header_->server_peer.pid.store(0, std::memory_order_release);
  }
  void deregister_client(std::uint32_t i) noexcept {
    header_->client_peer[i].pid.store(0, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t client_pid(std::uint32_t i) const noexcept {
    return header_->client_peer[i].pid.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t client_generation(std::uint32_t i) const noexcept {
    return header_->client_peer[i].generation.load(std::memory_order_acquire);
  }

  /// True iff client seat `i` is occupied by a process that no longer
  /// exists — i.e. the client died without deregistering.
  [[nodiscard]] bool client_crashed(std::uint32_t i) const noexcept {
    const std::uint32_t pid =
        header_->client_peer[i].pid.load(std::memory_order_acquire);
    return pid != 0 && !process_alive(pid);
  }
  [[nodiscard]] bool server_crashed() const noexcept {
    const std::uint32_t pid =
        header_->server_peer.pid.load(std::memory_order_acquire);
    return pid != 0 && !process_alive(pid);
  }

  // ---- pool worker liveness registry (mirrors the client registry) ----

  void register_worker(std::uint32_t s) noexcept {
    seat(header_->worker_peer[s], robust_self_pid());
  }
  void register_worker_pid(std::uint32_t s, std::uint32_t pid) noexcept {
    seat(header_->worker_peer[s], pid);
  }
  void deregister_worker(std::uint32_t s) noexcept {
    header_->worker_peer[s].pid.store(0, std::memory_order_release);
  }
  [[nodiscard]] std::uint32_t worker_pid(std::uint32_t s) const noexcept {
    return header_->worker_peer[s].pid.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t worker_generation(std::uint32_t s) const noexcept {
    return header_->worker_peer[s].generation.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool worker_crashed(std::uint32_t s) const noexcept {
    const std::uint32_t pid =
        header_->worker_peer[s].pid.load(std::memory_order_acquire);
    return pid != 0 && !process_alive(pid);
  }

  /// What reclaim_client() recovered.
  struct ReclaimStats {
    std::uint32_t drained_messages = 0;  // messages discarded from the dead
                                         // client's queues
    std::uint32_t nodes_reclaimed = 0;   // leaked queue nodes swept back
    std::uint32_t payloads_reclaimed = 0;  // leaked payload loans swept back
    bool reaped = false;  // this call vacated the seat (false = a concurrent
                          // recoverer got there first)
    bool departed = false;  // the seat's kDisconnect had already been
                            // served (its departure is already counted)
  };

  /// Reclaims everything a crashed client left behind: drains its reply
  /// queue, sweeps the node pool for nodes the
  /// corpse leaked mid-operation, and vacates its seat. Serialized against
  /// concurrent reclaims by the header's recovery lock; safe to run while
  /// other clients keep trafficking the channel.
  ReclaimStats reclaim_client(std::uint32_t i) noexcept;

  /// Every MsgQueue drawing from this channel's node pool — the exact
  /// list a recovery sweep must mark (a queue left out would have its
  /// in-flight nodes misread as leaks). Includes shard queues on pool
  /// channels.
  [[nodiscard]] std::vector<MsgQueue*> all_queues();

  /// Publishes one recovery event (counters + the shared recovery ring).
  /// Caller must hold the header's recovery lock, which serializes every
  /// writer of these cells.
  void publish_recovery(std::uint32_t participant, std::uint32_t drained,
                        std::uint32_t nodes_reclaimed,
                        std::uint32_t payloads_reclaimed = 0) noexcept;

  [[nodiscard]] SysvMsgQueue request_queue() const {
    return SysvMsgQueue::attach(header_->sysv_request_qid);
  }
  [[nodiscard]] SysvMsgQueue reply_queue(std::uint32_t i) const {
    return SysvMsgQueue::attach(header_->sysv_reply_qid[i]);
  }

  /// Estimates the arena bytes needed for a given configuration.
  static std::size_t required_bytes(const Config& cfg);

 private:
  ShmChannel() = default;

  void bind_obs_slot(NativePlatform& p, std::uint32_t slot_index,
                     obs::SlotRole role) noexcept {
    if (!has_obs()) return;
    obs::ObsHeader& oh = obs();
    oh.slot(slot_index).bind(role, robust_self_pid());
    p.bind_obs(&oh.slot(slot_index),
               static_cast<obs::TraceRing*>(oh.ring_blob(slot_index)),
               static_cast<std::uint16_t>(slot_index), role);
  }

  static void seat(PeerSlot& slot, std::uint32_t pid) noexcept {
    slot.generation.fetch_add(1, std::memory_order_acq_rel);
    slot.pid.store(pid, std::memory_order_release);
  }

  ShmArena arena_;
  ShmChannelHeader* header_ = nullptr;
  bool owns_sysv_ = false;
  SysvSemaphoreSet sem_set_;                 // owner only
  std::vector<SysvMsgQueue> owned_queues_;   // owner only
};

}  // namespace ulipc
