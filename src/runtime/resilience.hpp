// Client-side resilience for pool channels: bounded retry with jittered
// exponential backoff, per-request deadline budgets, and graceful
// degradation under overload.
//
// The pool's recovery machinery (server_pool.hpp) makes worker death
// transparent *eventually*: survivors retire the dead shard, re-place its
// clients, and drain the orphaned backlog within one liveness timeout. But
// a request that was sitting in the dead worker's queue when it was
// SIGKILLed gets served long after its sender expected the reply, and a
// request enqueued INTO the retirement race may be answered by a straggler
// re-drain a timeout later. A client that blocks forever on one reply
// cannot ride through that; a client that re-sends blindly floods the pool
// with duplicates.
//
// ResilientPoolClient turns every operation into a bounded-time loop:
//
//   * deadline budgets — each attempt gets cfg.request_deadline_ns,
//     threaded through the protocol-layer *_until ops (enqueue_and_wake_
//     until / dequeue_or_sleep_until), so neither a full request queue nor
//     a missing reply can block past the budget;
//   * bounded retry — on expiry the request is re-sent (same payload, same
//     tag) after a jittered exponential backoff, up to cfg.max_retries
//     times; the assignment is re-read from the shard map first, so a
//     re-placement after a worker death redirects the retry;
//   * stale-reply dedup — every logical request carries a unique tag in
//     Message.ext_offset, echoed verbatim by the server. The receive loop
//     discards replies whose tag does not match the in-flight request:
//     those are answers to an earlier attempt of a request that was
//     ALSO served (e.g. first attempt was drained off the dead shard after
//     we had already retried). Duplicated echo/compute requests are
//     idempotent by construction; duplicated disconnects are deduplicated
//     server-side (client_departed exchange guard in serve_batch);
//   * graceful degradation — with cfg.shed_watermark > 0, a data request
//     whose target shard is deeper than the watermark is refused
//     immediately with RequestOutcome::kOverloaded instead of joining an
//     unbounded flow-control sleep. The caller decides whether to back
//     off and re-issue; the pool never sees the shed request at all.
//
// All sleeps go through sleep_ns_eintr (common/retry.hpp): chaos mode
// delivers signal storms, and an interrupted nanosleep must not silently
// turn an exponential backoff into a busy loop.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "obs/hooks.hpp"
#include "protocols/detail.hpp"
#include "protocols/shard_map.hpp"
#include "queue/payload_pool.hpp"
#include "runtime/shm_channel.hpp"

namespace ulipc {

struct ResilienceConfig {
  std::int64_t request_deadline_ns = 200'000'000;  // per-attempt budget
  std::uint32_t max_retries = 50;                  // re-sends after expiry
  std::int64_t backoff_base_ns = 100'000;          // first retry delay
  std::int64_t backoff_cap_ns = 10'000'000;        // exponential ceiling
  double backoff_jitter = 0.5;   // each delay drawn from [d*(1-j), d]
  std::uint64_t shed_watermark = 0;  // shard depth that trips kOverloaded;
                                     // 0 disables admission shedding
  std::uint64_t seed = 0x5ca1ab1e;   // jitter RNG seed
};

/// Outcome of one logical request (possibly several attempts).
enum class RequestOutcome : std::uint8_t {
  kOk = 0,        // verified reply received
  kOverloaded,    // shed at admission: target shard over the watermark
  kTimedOut,      // every attempt's deadline expired
};

constexpr const char* request_outcome_name(RequestOutcome o) noexcept {
  switch (o) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kOverloaded: return "overloaded";
    case RequestOutcome::kTimedOut: return "timed-out";
  }
  return "?";
}

/// Per-client resilience event counts (the obs counters carry retries and
/// sheds too; this struct adds the dedup/re-placement detail).
struct ResilienceStats {
  std::uint64_t requests = 0;       // logical requests issued
  std::uint64_t retries = 0;        // extra attempts after a deadline expiry
  std::uint64_t sheds = 0;          // requests refused at admission
  std::uint64_t stale_dropped = 0;  // replies to superseded attempts
  std::uint64_t replacements = 0;   // self re-placements (shard retired)
};

/// A pool client whose every operation is bounded in time. One instance per
/// client id; not thread-safe (one logical request in flight at a time, the
/// synchronous shape every scenario workload uses).
class ResilientPoolClient {
 public:
  ResilientPoolClient(ShmChannel& channel, std::uint32_t id,
                      const ResilienceConfig& cfg = {})
      : channel_(channel),
        id_(id),
        cfg_(cfg),
        rng_(cfg.seed ^ (std::uint64_t{id} << 32 | id)) {}

  [[nodiscard]] const ResilienceStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Jittered exponential backoff before retry attempt `attempt` (>= 1):
  /// base * 2^(attempt-1), capped, then jittered down by up to
  /// cfg.backoff_jitter. Exposed for tests.
  [[nodiscard]] std::int64_t backoff_ns(std::uint32_t attempt) noexcept {
    std::int64_t d = cfg_.backoff_base_ns;
    for (std::uint32_t i = 1; i < attempt && d < cfg_.backoff_cap_ns; ++i) {
      d *= 2;
    }
    if (d > cfg_.backoff_cap_ns) d = cfg_.backoff_cap_ns;
    const double scale = 1.0 - cfg_.backoff_jitter * rng_.uniform01();
    return static_cast<std::int64_t>(static_cast<double>(d) * scale);
  }

  /// Connect: place onto a shard (unless already placed — a retry after a
  /// partial connect keeps its seat), take the liveness seat, then the
  /// kConnect round trip under the usual retry/deadline envelope. Connects
  /// are never shed: an admission refusal would strand the placement.
  template <typename P>
  RequestOutcome connect(P& p, PlacementPolicy policy) {
    policy_ = policy;
    channel_.register_client(id_);
    Message ans;
    return roundtrip(p, Op::kConnect, 0.0, &ans, /*sheddable=*/false);
  }

  /// One synchronous data request (kEcho or kCompute). On kOk, `*ans` holds
  /// the verified reply. kOverloaded means the request was never sent.
  template <typename P>
  RequestOutcome request(P& p, Op op, double value, Message* ans) {
    return roundtrip(p, op, value, ans, /*sheddable=*/true);
  }

  /// One synchronous data request carrying a published payload loan. The
  /// token rides in ext_offset, where it doubles as the stale-reply dedup
  /// tag: tokens carry the slot's loan generation, so a reply echoing the
  /// token of a superseded attempt against a since-recycled slot can never
  /// match the in-flight request.
  ///
  /// Loan ownership: on kOk the loan is the caller's again — consume the
  /// reply payload in place, then release. On kOverloaded (never sent) or
  /// kTimedOut (every attempt expired), this method has already released
  /// the loan — exactly once — and the caller must not touch the token
  /// again. `loan_t0` is the obs::loan_made() timestamp, threaded through
  /// so the internal release keeps the hold-time histogram matched.
  template <typename P>
  RequestOutcome request_loaned(P& p, Op op, double value,
                                std::uint64_t token, Message* ans,
                                std::int64_t loan_t0 = 0) {
    const RequestOutcome o =
        roundtrip_tagged(p, op, value, token, ans, /*sheddable=*/true);
    if (o != RequestOutcome::kOk) {
      PayloadPool* plane = channel_.payload_plane();
      if (plane != nullptr && plane->owns_token(token)) {
        plane->release(token);
        obs::loan_released(p, loan_t0);
      }
    } else if constexpr (requires { p.obs_last_span_id(); }) {
      // Span mirror: tie the loan to the request's causal span (the span
      // id of this platform's last send — the request we just completed;
      // 0 when that send was unsampled). Written only on kOk, while the
      // loan is unambiguously the caller's again, so a re-loaned slot can
      // never be scribbled on.
      PayloadPool* plane = channel_.payload_plane();
      if (plane != nullptr && plane->owns_token(token)) {
        plane->set_span(token, p.obs_last_span_id());
      }
    }
    return o;
  }

  /// Disconnect: the kDisconnect round trip (retried like any other — the
  /// server dedups repeats via client_departed), then release the placement
  /// slot and the liveness seat. Best-effort: even on kTimedOut the local
  /// teardown proceeds, so a dead pool cannot wedge a departing client.
  template <typename P>
  RequestOutcome disconnect(P& p) {
    Message ans;
    const RequestOutcome o =
        roundtrip(p, Op::kDisconnect, 0.0, &ans, /*sheddable=*/false);
    channel_.shard_map().unplace(id_);
    channel_.deregister_client(id_);
    return o;
  }

 private:
  /// Re-reads the assignment, re-placing if the shard map retired it (or it
  /// was never placed). Returns the live shard, or kNoShard when the pool
  /// has no active shard left (caller backs off and retries).
  std::uint32_t ensure_placed() noexcept {
    PoolShardMap& map = channel_.shard_map();
    std::uint32_t s = map.assignment(id_);
    if (s != kNoShard && map.state(s) == PoolShardMap::kActive) return s;
    const bool had = s != kNoShard;
    s = map.place(id_, policy_);
    if (s != kNoShard && had) ++stats_.replacements;
    return s;
  }

  template <typename P>
  RequestOutcome roundtrip(P& p, Op op, double value, Message* ans,
                           bool sheddable) {
    // The dedup tag rides in ext_offset, which serve_one_request echoes
    // verbatim for every op the pool serves. Unique per logical request,
    // shared by all its attempts: any attempt's reply settles the request.
    return roundtrip_tagged(p, op, value, ++seq_, ans, sheddable);
  }

  template <typename P>
  RequestOutcome roundtrip_tagged(P& p, Op op, double value,
                                  std::uint64_t tag, Message* ans,
                                  bool sheddable) {
    ++stats_.requests;
    const Message msg(op, id_, value, tag);
    NativeEndpoint& mine = channel_.client_endpoint(id_);
    for (std::uint32_t attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
      if (attempt > 0) {
        ++stats_.retries;
        ++p.counters().retries;
        sleep_ns_eintr(backoff_ns(attempt));
      }
      const std::uint32_t s = ensure_placed();
      if (s == kNoShard) continue;  // no active shard yet; back off
      NativeEndpoint& srv = channel_.shard_endpoint(s);
      if (sheddable && cfg_.shed_watermark > 0 &&
          srv.depth() > cfg_.shed_watermark) {
        ++stats_.sheds;
        ++p.counters().sheds;
        return RequestOutcome::kOverloaded;
      }
      const std::int64_t deadline = p.time_ns() + cfg_.request_deadline_ns;
      if (detail::enqueue_and_wake_until(p, srv, msg, deadline) !=
          Status::kOk) {
        continue;  // request queue stayed full for the whole budget
      }
      ++p.counters().sends;
      // Drain replies until ours arrives or the budget runs out. Replies
      // carrying another tag belong to a superseded attempt (the original
      // WAS eventually served — e.g. migrated off a dead shard after we
      // had retried); drop them so they cannot satisfy a later request.
      while (detail::dequeue_or_sleep_until(p, mine, ans,
                                            /*pre_busy_wait=*/false,
                                            deadline) == Status::kOk) {
        ++p.counters().receives;
        if (ans->ext_offset == tag && ans->channel == id_) {
          return RequestOutcome::kOk;
        }
        ++stats_.stale_dropped;
      }
    }
    return RequestOutcome::kTimedOut;
  }

  ShmChannel& channel_;
  std::uint32_t id_;
  ResilienceConfig cfg_;
  PlacementPolicy policy_ = PlacementPolicy::kLeastLoaded;
  Xoshiro256 rng_;
  std::uint64_t seq_ = 0;
  ResilienceStats stats_;
};

}  // namespace ulipc
