// ServerPool: N workers, each owning one receive-queue shard of a pool
// channel — the multiprocessor scale-out the paper measures in Figure 11,
// built on the same endpoints, protocols, and recovery machinery as the
// single-queue server.
//
// Topology: a pool channel (ShmChannel::Config::shards > 0) lays out one
// MPSC receive endpoint per worker next to the classic per-client reply
// endpoints. Clients pick a shard at connect time through the shared
// PoolShardMap (least-loaded or rendezvous placement) and re-read their
// assignment before every request, so re-placement after a worker death is
// transparent to them. Replies go through the two-lock queues only (no SPSC
// rings): stealing and migration make the reply direction multi-producer.
//
// Each worker loop:
//   * receives on its own shard with the protocol's timed receive, then
//     drains up to kServerBatch more without blocking (one lock pass);
//   * serves requests and flushes replies in contiguous per-client runs
//     (one batched enqueue + at most one wake per run), bounded by the
//     liveness timeout so a dead client's full queue cannot wedge it;
//   * on an idle tick (timed receive expired): reaps crashed workers and
//     clients, re-drains retired shards for stragglers, and steals a
//     bounded batch from the most-loaded live shard.
//
// Worker-death recovery ordering (under the channel recovery lock):
//   retire the shard (placement stops offering it) -> re-place its clients
//   onto survivors -> drain + serve the orphaned backlog (those requests
//   came from live clients; discarding them would hang senders) -> sweep
//   leaked pool nodes -> vacate the worker seat. A request enqueued into
//   the retired queue by a client that raced the retire is picked up by the
//   straggler re-drain within one liveness timeout.
//
// Termination: disconnects are scattered across workers, so no single
// worker sees them all — every disconnect (served or reaped) bumps the
// header's pool_disconnected, and each worker exits once it reaches
// expected_clients.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/error.hpp"
#include "explore/hooks.hpp"
#include "protocols/channel.hpp"
#include "protocols/detail.hpp"
#include "protocols/shard_map.hpp"
#include "queue/queue_recovery.hpp"
#include "runtime/native_platform.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/robust_spinlock.hpp"

namespace ulipc {

struct ServerPoolOptions {
  std::uint32_t expected_clients = 0;  // run ends after this many leave
  std::int64_t liveness_timeout_ns = 50'000'000;  // idle-tick period
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;
  std::uint32_t steal_batch = 16;      // max messages per steal pass;
                                       // 0 disables the idle steal path
  std::uint32_t steal_min_depth = 2;   // only rob victims at least this deep
  // Test hooks: worker `park_worker` stops serving its own shard after
  // `park_after_messages` echoes (it keeps watching the termination count,
  // serving nothing), and raises `park_signal` — giving fault-injection
  // tests a deterministic point to SIGKILL it with a known backlog, and the
  // steal test a worker whose queue only thieves can empty.
  std::uint32_t park_worker = kNoShard;
  std::uint64_t park_after_messages = 0;
  std::atomic<std::uint32_t>* park_signal = nullptr;
  // External shutdown flag (chaos runs): when clients are SIGKILLed mid-
  // load, pool_disconnected can never reach expected_clients, so the
  // orchestrator raises this once it has finished its own recovery sweep.
  // nullptr (the default) keeps the disconnect-count termination only.
  std::atomic<std::uint32_t>* stop_flag = nullptr;
};

/// One reaped worker, as observed by the survivor that did the reaping.
struct WorkerCrashEvent {
  std::uint32_t shard = 0;
  std::uint32_t pid = 0;
  std::uint32_t clients_replaced = 0;
  std::uint32_t migrated_messages = 0;
  std::uint32_t nodes_reclaimed = 0;
  std::uint32_t payloads_reclaimed = 0;
};

struct PoolWorkerResult {
  std::uint32_t shard = 0;
  ServerResult server;  // per-worker served counts + throughput window
  std::uint64_t steal_passes = 0;
  std::uint64_t stolen_messages = 0;
  std::uint64_t migrated_messages = 0;
  std::uint32_t reaped_workers = 0;
  std::uint32_t reaped_clients = 0;
  std::vector<WorkerCrashEvent> crash_events;
};

/// Aggregate of a whole pool run (sum of the workers, with the throughput
/// window spanning the earliest first-request to the latest disconnect).
struct ServerPoolResult {
  std::uint64_t echo_messages = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t steal_passes = 0;
  std::uint64_t stolen_messages = 0;
  std::uint64_t migrated_messages = 0;
  std::uint32_t crashed_workers = 0;
  std::uint32_t crashed_clients = 0;
  std::int64_t first_request_ns = 0;
  std::int64_t last_disconnect_ns = 0;
  std::vector<PoolWorkerResult> workers;

  [[nodiscard]] double throughput_msgs_per_ms() const noexcept;
};

/// Sums per-worker results into the pool aggregate.
ServerPoolResult aggregate_pool_results(std::vector<PoolWorkerResult> workers);

/// Runs one pool worker on shard `shard` until expected_clients have left.
/// Callable from a thread of a pool process or from a dedicated forked
/// process (the SIGKILL tests need real per-worker pids). `proto` shapes
/// the receive path (e.g. BSLS pre-spin); replies always use the batched
/// guarded wake-up. Clients must use a protocol whose send wakes a sleeping
/// consumer (any of the BSW family — not pure spinning).
template <typename Proto>
PoolWorkerResult run_pool_worker(ShmChannel& channel, Proto proto,
                                 std::uint32_t shard,
                                 const ServerPoolOptions& opts,
                                 const NativePlatform::Config& pcfg = {}) {
  ULIPC_INVARIANT(opts.expected_clients > 0, "pool run needs a client count");
  ULIPC_INVARIANT(shard < channel.num_shards(), "bad shard index");
  NativePlatform p(pcfg);
  channel.bind_pool_worker_obs(p, shard);
  if (channel.worker_pid(shard) !=
      static_cast<std::uint32_t>(robust_self_pid())) {
    channel.register_worker(shard);
  }

  ShmChannelHeader& hdr = channel.header();
  PoolShardMap& map = channel.shard_map();
  NativeEndpoint& my_ep = channel.shard_endpoint(shard);
  PoolWorkerResult result;
  result.shard = shard;

  Message in[kServerBatch];
  Message out[kServerBatch];
  bool parked = false;

  // Serves `got` requests from `reqs`, flushing replies grouped by
  // contiguous same-client runs — the batched server-loop shape, with each
  // flush bounded by the liveness timeout (a dead client's full reply queue
  // must not wedge a live worker; its dropped nodes are swept at reap).
  const auto serve_batch = [&](const Message* reqs, std::uint32_t got) {
    std::uint32_t i = 0;
    std::uint32_t newly_disconnected = 0;
    while (i < got) {
      const std::uint32_t cid = reqs[i].channel;
      std::uint32_t n = 0;
      bool handshake = false;  // the run carries a kConnect / kDisconnect
      while (i < got && reqs[i].channel == cid) {
        // Departure bookkeeping for the crash reaper (see
        // ShmChannelHeader::client_departed): record it BEFORE the reply
        // goes out, so a client that dies the instant it reads the
        // disconnect ack can never be double-counted as a crash departure.
        // exchange, not store: a resilient client that timed out waiting
        // for its disconnect ack re-sends kDisconnect, and the duplicate
        // must not bump pool_disconnected a second time (that would shut
        // the pool down before the remaining clients finish).
        bool duplicate_disconnect = false;
        if (reqs[i].opcode == Op::kDisconnect) {
          handshake = true;
          duplicate_disconnect =
              hdr.client_departed[cid].exchange(1, std::memory_order_acq_rel)
              != 0;
        } else if (reqs[i].opcode == Op::kConnect) {
          handshake = true;
          hdr.client_departed[cid].store(0, std::memory_order_release);
        }
        out[n++] = serve_one_request(p, reqs[i++], result.server,
                                     newly_disconnected);
        if (duplicate_disconnect && newly_disconnected > 0) {
          --newly_disconnected;
        }
      }
      NativeEndpoint& reply_ep = channel.client_endpoint(cid);
      const Status st = detail::enqueue_batch_and_wake_until(
          p, reply_ep, out, n, p.time_ns() + opts.liveness_timeout_ns);
      if (st == Status::kOk) p.counters().replies += n;
      // Data requests from a departed seat are a corpse's leftovers. If a
      // reaper already drained the seat, these replies would sit in its
      // queue for good: reclaim_client marks the seat before its drain, and
      // the enqueue above fences after publishing, so whichever of the two
      // comes second sees the other's write. Under the recovery lock the
      // reap has finished; a seat re-registered since belongs to a new
      // client and keeps its queue.
      if (!handshake &&
          hdr.client_departed[cid].load(std::memory_order_relaxed) != 0) {
        RobustGuard g(hdr.recovery_lock);
        if (channel.client_pid(cid) == 0) (void)reply_ep.queue->drain();
      }
    }
    if (newly_disconnected > 0) {
      hdr.pool_disconnected.fetch_add(newly_disconnected,
                                      std::memory_order_acq_rel);
    }
  };

  // Non-blocking drain-and-serve of an endpoint until empty. Used for the
  // orphan backlog at reap time and the retired-shard straggler sweep.
  const auto drain_and_serve = [&](NativeEndpoint& ep) {
    std::uint32_t total = 0;
    for (;;) {
      const std::uint32_t k = p.dequeue_batch(ep, in, kServerBatch);
      if (k == 0) break;
      p.counters().receives += k;
      serve_batch(in, k);
      total += k;
    }
    return total;
  };

  const auto reap_worker = [&](std::uint32_t s) {
    RobustGuard g(hdr.recovery_lock);
    // Re-check under the lock: another survivor may have reaped it, or the
    // seat may have been re-seated by a replacement worker.
    const std::uint32_t pid = channel.worker_pid(s);
    if (pid == 0 || process_alive(pid)) return;

    WorkerCrashEvent ev;
    ev.shard = s;
    ev.pid = pid;
    // Ordering (see file comment): retire -> re-place -> drain+serve ->
    // sweep -> vacate.
    map.retire(s);
    explore::point(explore::Point::kPoolRetired);
    NativeEndpoint& dead_ep = channel.shard_endpoint(s);
    // Nobody sleeps on a retired shard's semaphore again; a raised awake
    // flag spares racing producers the pointless V().
    p.set_awake(dead_ep);
    ev.clients_replaced = map.replace_clients_of(s, opts.policy);
    explore::point(explore::Point::kPoolReplaced);
    ev.migrated_messages = drain_and_serve(dead_ep);
    explore::point(explore::Point::kPoolDrained);
    map.shards[s].migrated_msgs.fetch_add(ev.migrated_messages,
                                          std::memory_order_relaxed);
    p.counters().migrated_msgs += ev.migrated_messages;
    result.migrated_messages += ev.migrated_messages;
    const RecoveryStats swept = sweep_leaked_nodes(
        channel.node_pool(), channel.all_queues(), channel.payload_plane());
    ev.nodes_reclaimed = swept.nodes_reclaimed;
    ev.payloads_reclaimed = swept.payloads_reclaimed;
    explore::point(explore::Point::kPoolSwept);
    channel.deregister_worker(s);
    explore::point(explore::Point::kPoolVacated);
    channel.publish_recovery(s, ev.migrated_messages, ev.nodes_reclaimed,
                             ev.payloads_reclaimed);
    ++result.reaped_workers;
    result.crash_events.push_back(ev);
  };

  const auto idle_tick = [&] {
    // 1. Crashed workers: retire, re-place, migrate, sweep.
    for (std::uint32_t s = 0; s < hdr.num_shards; ++s) {
      if (s != shard && channel.worker_crashed(s)) reap_worker(s);
    }
    // 2. Straggler re-drain: a client that read its (old) assignment just
    // before the retire may have enqueued into the dead queue after the
    // migration drain. Idempotent re-drains bound the stranding to one
    // liveness timeout. The cheap empty check keeps the common case
    // lock-free; the drain itself serializes under the recovery lock.
    for (std::uint32_t s = 0; s < hdr.num_shards; ++s) {
      if (map.state(s) != PoolShardMap::kRetired) continue;
      if (p.queue_empty(channel.shard_endpoint(s))) continue;
      RobustGuard g(hdr.recovery_lock);
      const std::uint32_t n = drain_and_serve(channel.shard_endpoint(s));
      map.shards[s].migrated_msgs.fetch_add(n, std::memory_order_relaxed);
      p.counters().migrated_msgs += n;
      result.migrated_messages += n;
    }
    // 3. Crashed clients: reclaim_client re-checks under the recovery lock,
    // so only one worker counts the corpse as a departure.
    for (std::uint32_t c = 0; c < hdr.max_clients; ++c) {
      if (!channel.client_crashed(c)) continue;
      const ShmChannel::ReclaimStats rs = channel.reclaim_client(c);
      if (rs.reaped) {
        map.unplace(c);
        ++result.reaped_clients;
        // Leave-then-crash: a client that already had its kDisconnect
        // served was counted by that worker; counting the corpse again
        // would overshoot pool_disconnected and shut the pool down early.
        if (!rs.departed) {
          hdr.pool_disconnected.fetch_add(1, std::memory_order_acq_rel);
        }
      }
    }
    // 4. Bounded steal from the most-loaded live shard: an idle worker
    // must not strand behind a skewed placement. dequeue_batch is
    // multi-consumer-safe (head lock), and replies from here are why pool
    // reply endpoints carry no SPSC ring.
    if (opts.steal_batch == 0) return;
    std::uint32_t victim = kNoShard;
    std::uint64_t victim_depth = 0;
    for (std::uint32_t s = 0; s < hdr.num_shards; ++s) {
      if (s == shard || map.state(s) != PoolShardMap::kActive) continue;
      const std::uint64_t depth = channel.shard_endpoint(s).queue->size();
      if (depth >= opts.steal_min_depth && depth > victim_depth) {
        victim = s;
        victim_depth = depth;
      }
    }
    if (victim == kNoShard) return;
    const std::uint32_t k =
        p.dequeue_batch(channel.shard_endpoint(victim), in,
                        std::min(opts.steal_batch, kServerBatch));
    if (k == 0) return;
    p.counters().receives += k;
    ++p.counters().steals;
    p.counters().stolen_msgs += k;
    map.shards[victim].steal_passes.fetch_add(1, std::memory_order_relaxed);
    map.shards[victim].stolen_msgs.fetch_add(k, std::memory_order_relaxed);
    ++result.steal_passes;
    result.stolen_messages += k;
    serve_batch(in, k);
  };

  const auto done = [&] {
    return hdr.pool_disconnected.load(std::memory_order_acquire) >=
               opts.expected_clients ||
           (opts.stop_flag != nullptr &&
            opts.stop_flag->load(std::memory_order_acquire) != 0);
  };

  // Maintenance (reap/re-drain/steal) must run even when this worker never
  // goes idle: under saturated load the timed receive never expires, and a
  // crashed peer would otherwise stay unreaped until traffic happened to
  // pause — unbounded, which the chaos scenarios' orphan-drain SLO forbids.
  // The forced tick bounds the gap between maintenance passes to one
  // liveness window regardless of load.
  std::int64_t next_tick = p.time_ns() + opts.liveness_timeout_ns;
  while (!done()) {
    if (parked) {  // test hook: serve nothing, just watch for termination
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const std::int64_t now = p.time_ns();
    if (now >= next_tick) {
      idle_tick();
      next_tick = p.time_ns() + opts.liveness_timeout_ns;
    }
    const std::int64_t deadline = now + opts.liveness_timeout_ns;
    const Status st = proto.receive_until(p, my_ep, &in[0], deadline);
    if (st != Status::kOk) {
      idle_tick();
      next_tick = p.time_ns() + opts.liveness_timeout_ns;
      continue;
    }
    // The protocol's timed receive delivered the burst head (and counted
    // the receive); drain the rest of the burst without blocking.
    const std::uint32_t got = 1 + p.dequeue_batch(my_ep, in + 1,
                                                  kServerBatch - 1);
    if (got > 1) {
      ++p.counters().batch_dequeues;
      p.counters().receives += got - 1;
    }
    serve_batch(in, got);
    if (opts.park_worker == shard &&
        result.server.echo_messages >= opts.park_after_messages) {
      parked = true;
      if (opts.park_signal != nullptr) {
        opts.park_signal->store(1, std::memory_order_release);
      }
    }
  }
  if constexpr (requires { proto.flush(p); }) {
    proto.flush(p);
  }
  channel.deregister_worker(shard);
  return result;
}

/// Thread-per-shard pool runner: one worker thread per shard of `channel`,
/// each with its own platform, protocol copy, and obs slot. `pin_workers`
/// spreads the threads over the host's CPUs (wrapped on small machines).
template <typename Proto>
ServerPoolResult run_server_pool(ShmChannel& channel, Proto proto,
                                 const ServerPoolOptions& opts,
                                 const NativePlatform::Config& pcfg = {},
                                 bool pin_workers = false) {
  const std::uint32_t n = channel.num_shards();
  ULIPC_INVARIANT(n >= 1, "not a pool channel");
  std::vector<PoolWorkerResult> results(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    workers.emplace_back([&, s] {
      if (pin_workers) pin_to_cpu_wrapped(static_cast<int>(s));
      results[s] = run_pool_worker(channel, proto, s, opts, pcfg);
    });
  }
  for (auto& w : workers) w.join();
  return aggregate_pool_results(std::move(results));
}

// ---- client side ----

/// Connect handshake against the pool: place (or force) a shard through the
/// shared map, then the usual synchronous kConnect against that shard.
template <typename P, typename Proto>
void pool_client_connect(P& p, Proto& proto, ShmChannel& channel,
                         std::uint32_t id, PlacementPolicy policy,
                         std::uint32_t forced_shard = kNoShard) {
  PoolShardMap& map = channel.shard_map();
  const std::uint32_t s = forced_shard != kNoShard
                              ? map.assign(id, forced_shard)
                              : map.place(id, policy);
  ULIPC_INVARIANT(s != kNoShard, "no active shard to place client on");
  client_connect(p, proto, channel.shard_endpoint(s),
                 channel.client_endpoint(id), id);
}

/// The echo barrage against a pool: identical to client_echo_loop except
/// the request endpoint is re-resolved through the shard map every message,
/// so a re-placement (after a worker death) redirects the very next send.
template <typename P, typename Proto>
std::uint64_t pool_client_echo_loop(P& p, Proto& proto, ShmChannel& channel,
                                    std::uint32_t id, std::uint64_t n,
                                    double work_us = 0.0) {
  std::uint64_t verified = 0;
  PoolShardMap& map = channel.shard_map();
  NativeEndpoint& mine = channel.client_endpoint(id);
  const Op op = work_us > 0.0 ? Op::kCompute : Op::kEcho;
  for (std::uint64_t i = 0; i < n; ++i) {
    NativeEndpoint& srv = channel.shard_endpoint(map.assignment(id));
    const double arg = work_us > 0.0 ? work_us : static_cast<double>(i);
    Message ans;
    const std::int64_t rt0 = obs::round_trip_begin(p);
    proto.send(p, srv, mine, Message(op, id, arg), &ans);
    obs::round_trip_end(p, rt0);
    if (ans.opcode == op && ans.value == arg && ans.channel == id) {
      ++verified;
    }
  }
  return verified;
}

/// Windowed variant: `window` requests in flight per batch. Replies to one
/// window may arrive out of order when a thief answers part of it, so
/// verification is order-insensitive: count + value-sum of the answers must
/// match the window (echo values are distinct, so a permuted window still
/// verifies and a corrupted one does not).
template <typename P, typename Proto>
std::uint64_t pool_client_echo_loop_windowed(P& p, Proto& proto,
                                             ShmChannel& channel,
                                             std::uint32_t id, std::uint64_t n,
                                             std::uint32_t window,
                                             double work_us = 0.0) {
  constexpr std::uint32_t kMaxWindow = 128;
  window = std::clamp<std::uint32_t>(window, 1, kMaxWindow);
  Message reqs[kMaxWindow];
  Message answers[kMaxWindow];
  std::uint64_t verified = 0;
  PoolShardMap& map = channel.shard_map();
  NativeEndpoint& mine = channel.client_endpoint(id);
  const Op op = work_us > 0.0 ? Op::kCompute : Op::kEcho;
  for (std::uint64_t base = 0; base < n; base += window) {
    NativeEndpoint& srv = channel.shard_endpoint(map.assignment(id));
    const auto w = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(window, n - base));
    double sent_sum = 0.0;
    for (std::uint32_t i = 0; i < w; ++i) {
      const double arg =
          work_us > 0.0 ? work_us : static_cast<double>(base + i);
      reqs[i] = Message(op, id, arg);
      sent_sum += arg;
    }
    const std::int64_t rt0 = obs::round_trip_begin(p);
    proto.send_batch(p, srv, mine, reqs, w, answers);
    obs::round_trip_end(p, rt0, w);
    std::uint32_t good = 0;
    double got_sum = 0.0;
    for (std::uint32_t i = 0; i < w; ++i) {
      if (answers[i].opcode == op && answers[i].channel == id) {
        ++good;
        got_sum += answers[i].value;
      }
    }
    if (good == w && got_sum == sent_sum) verified += w;
  }
  return verified;
}

/// Payload-bearing windowed variant: every request of the window loans a
/// `next_bytes()`-sized payload from the channel's plane, writes it in
/// place, and sends the token in ext_offset; the echo batons each loan back
/// (possibly permuted across the window) and the loop releases it after the
/// batch verifies. An exhausted plane degrades that request to payload-less
/// rather than stalling the window. `*bytes_moved` accumulates the payload
/// bytes of replies that came back.
template <typename P, typename Proto, typename SizeFn>
std::uint64_t pool_client_echo_loop_windowed_loaned(
    P& p, Proto& proto, ShmChannel& channel, std::uint32_t id,
    std::uint64_t n, std::uint32_t window, SizeFn&& next_bytes,
    std::uint64_t* bytes_moved) {
  constexpr std::uint32_t kMaxWindow = 128;
  window = std::clamp<std::uint32_t>(window, 1, kMaxWindow);
  Message reqs[kMaxWindow];
  Message answers[kMaxWindow];
  std::uint64_t tokens[kMaxWindow];
  std::int64_t loan_t0[kMaxWindow];
  std::uint64_t verified = 0;
  PayloadPool* plane = channel.payload_plane();
  PoolShardMap& map = channel.shard_map();
  NativeEndpoint& mine = channel.client_endpoint(id);
  for (std::uint64_t base = 0; base < n; base += window) {
    NativeEndpoint& srv = channel.shard_endpoint(map.assignment(id));
    const auto w = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(window, n - base));
    double sent_sum = 0.0;
    for (std::uint32_t i = 0; i < w; ++i) {
      const auto arg = static_cast<double>(base + i);
      const std::uint32_t sz = next_bytes();
      std::uint64_t token = PayloadPool::kNoPayload;
      if (plane != nullptr && sz > 0) token = plane->loan(sz);
      if (token != PayloadPool::kNoPayload) {
        loan_t0[i] = obs::loan_made(p);
        std::memset(plane->data(token), static_cast<int>('a' + i % 26), sz);
        plane->publish(token, sz);
      } else {
        loan_t0[i] = 0;
      }
      tokens[i] = token;
      reqs[i] = Message(Op::kEcho, id, arg, token);
      sent_sum += arg;
    }
    const std::int64_t rt0 = obs::round_trip_begin(p);
    proto.send_batch(p, srv, mine, reqs, w, answers);
    obs::round_trip_end(p, rt0, w);
    std::uint32_t good = 0;
    double got_sum = 0.0;
    for (std::uint32_t i = 0; i < w; ++i) {
      if (answers[i].opcode == Op::kEcho && answers[i].channel == id) {
        ++good;
        got_sum += answers[i].value;
      }
      const std::uint64_t tok = answers[i].ext_offset;
      if (plane == nullptr || tok == PayloadPool::kNoPayload ||
          !plane->owns_token(tok)) {
        continue;
      }
      // The window may come back permuted: find the loan this reply
      // batons back to close its hold-time measurement.
      for (std::uint32_t j = 0; j < w; ++j) {
        if (tokens[j] == tok) {
          *bytes_moved += plane->read(tok).size();
          plane->release(tok);
          obs::loan_released(p, loan_t0[j]);
          tokens[j] = PayloadPool::kNoPayload;
          break;
        }
      }
    }
    if (good == w && got_sum == sent_sum) verified += w;
  }
  return verified;
}

/// Disconnect handshake: kDisconnect to the current shard, then release the
/// placement slot and the liveness seat (so the exiting process does not
/// read as crashed and get double-counted as a departure).
template <typename P, typename Proto>
void pool_client_disconnect(P& p, Proto& proto, ShmChannel& channel,
                            std::uint32_t id) {
  PoolShardMap& map = channel.shard_map();
  NativeEndpoint& srv = channel.shard_endpoint(map.assignment(id));
  client_disconnect(p, proto, srv, channel.client_endpoint(id), id);
  map.unplace(id);
  channel.deregister_client(id);
}

}  // namespace ulipc
