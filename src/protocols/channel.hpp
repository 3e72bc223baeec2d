// Client/server session loops over the Send/Receive/Reply interface.
//
// This is the service architecture of the paper's evaluation: up to n
// clients connect to a single-threaded server through one shared receive
// queue; each client owns a reply queue, and every request carries the
// reply-channel id ("each client request should include the number of the
// reply queue to be used for the response").
//
// The loops are generic over Platform and protocol, so the identical code
// runs on real processes and inside the scheduler simulator — mirroring the
// paper's "only the implementation of the protocols themselves changes".
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "protocols/detail.hpp"
#include "protocols/platform.hpp"

namespace ulipc {

/// What the server observed during one run (the paper's measurement basis).
struct ServerResult {
  std::uint64_t echo_messages = 0;     // kEcho + kCompute requests served
  std::uint64_t control_messages = 0;  // connects + disconnects
  std::int64_t first_request_ns = 0;   // time of first kEcho/kCompute
  std::int64_t last_disconnect_ns = 0; // time the final client left

  /// Server throughput in messages per millisecond over the measurement
  /// window, computed exactly as the paper does: real elapsed time from the
  /// first message request until the last client disconnects.
  [[nodiscard]] double throughput_msgs_per_ms() const noexcept {
    const std::int64_t window = last_disconnect_ns - first_request_ns;
    if (window <= 0) return 0.0;
    return static_cast<double>(echo_messages) /
           (static_cast<double>(window) / 1e6);
  }
};

/// How many requests the batched server loop drains per receive pass (and
/// thus the most replies a single reply_batch can coalesce into one wake).
inline constexpr std::uint32_t kServerBatch = 64;

/// Computes the reply for one request, updating the run accounting — the
/// one switch shared by the scalar and batched server loops.
template <typename P>
inline Message serve_one_request(P& p, const Message& msg,
                                 ServerResult& result,
                                 std::uint32_t& disconnected) {
  switch (msg.opcode) {
    case Op::kConnect:
      ++result.control_messages;
      return msg;
    case Op::kDisconnect:
      ++result.control_messages;
      ++disconnected;
      result.last_disconnect_ns = p.time_ns();
      return msg;
    case Op::kCompute:
      p.work_us(msg.value);
      [[fallthrough]];
    case Op::kEcho:
      if (result.echo_messages == 0) result.first_request_ns = p.time_ns();
      ++result.echo_messages;
      return msg;
    default:
      return Message(Op::kError, msg.channel, msg.value);
  }
}

/// Runs the single-threaded echo server until `expected_clients` clients
/// have connected and disconnected. `reply_ep(id)` maps a reply-channel id
/// to the client's endpoint.
///
/// Protocols exposing receive_batch/reply_batch get the syscall-lean loop:
/// drain up to kServerBatch requests per receive (one queue-lock pass),
/// then flush the replies grouped by contiguous same-client runs, so each
/// run costs one lock pass and at most one wake-up. Staging replies in
/// arrival order and flushing runs in order preserves per-client reply
/// order exactly as the scalar loop does.
template <typename P, typename Proto, typename ReplyEp>
ServerResult run_echo_server(P& p, Proto& proto, typename P::Endpoint& srv,
                             ReplyEp&& reply_ep,
                             std::uint32_t expected_clients) {
  ServerResult result;
  std::uint32_t disconnected = 0;
  constexpr bool kBatched =
      requires(Message* out, const Message* cm, std::uint32_t u) {
        { proto.receive_batch(p, srv, out, u) } ->
            std::same_as<std::uint32_t>;
        proto.reply_batch(p, srv, cm, u);
      };
  if constexpr (kBatched) {
    Message in[kServerBatch];
    Message out[kServerBatch];
    while (disconnected < expected_clients) {
      const std::uint32_t got = proto.receive_batch(p, srv, in, kServerBatch);
      std::uint32_t i = 0;
      while (i < got) {
        const std::uint32_t channel = in[i].channel;
        std::uint32_t n = 0;
        while (i < got && in[i].channel == channel) {
          out[n++] = serve_one_request(p, in[i++], result, disconnected);
        }
        proto.reply_batch(p, reply_ep(channel), out, n);
      }
    }
  } else {
    while (disconnected < expected_clients) {
      Message msg;
      proto.receive(p, srv, &msg);
      const Message reply = serve_one_request(p, msg, result, disconnected);
      proto.reply(p, reply_ep(msg.channel), reply);
    }
  }
  // Protocols that defer work (e.g. BslsThrottled's pending wake-ups) must
  // complete it before the server leaves.
  if constexpr (requires { proto.flush(p); }) {
    proto.flush(p);
  }
  return result;
}

/// Client connect handshake (synchronous; server echoes the connect).
template <typename P, typename Proto>
void client_connect(P& p, Proto& proto, typename P::Endpoint& srv,
                    typename P::Endpoint& mine, std::uint32_t id) {
  Message ans;
  proto.send(p, srv, mine, Message(Op::kConnect, id, 0.0), &ans);
  ULIPC_INVARIANT(ans.opcode == Op::kConnect, "connect not acknowledged");
}

/// The paper's benchmark inner loop: barrage the server with `n` synchronous
/// echo requests. Returns the number of correctly echoed replies.
/// `work_us` > 0 switches to kCompute requests with that much server work.
template <typename P, typename Proto>
std::uint64_t client_echo_loop(P& p, Proto& proto, typename P::Endpoint& srv,
                               typename P::Endpoint& mine, std::uint32_t id,
                               std::uint64_t n, double work_us = 0.0) {
  std::uint64_t verified = 0;
  const Op op = work_us > 0.0 ? Op::kCompute : Op::kEcho;
  for (std::uint64_t i = 0; i < n; ++i) {
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

/// Batched/windowed variant of client_echo_loop: sends `window` requests
/// per send_batch (one enqueue pass, one coalesced wake) and collects the
/// whole window of replies off the SPSC reply path. Still synchronous at
/// window granularity — at most `window` requests are ever outstanding.
template <typename P, typename Proto>
std::uint64_t client_echo_loop_batched(P& p, Proto& proto,
                                       typename P::Endpoint& srv,
                                       typename P::Endpoint& mine,
                                       std::uint32_t id, std::uint64_t n,
                                       std::uint32_t window,
                                       double work_us = 0.0) {
  constexpr std::uint32_t kMaxWindow = 128;
  window = std::clamp<std::uint32_t>(window, 1, kMaxWindow);
  Message reqs[kMaxWindow];
  Message answers[kMaxWindow];
  std::uint64_t verified = 0;
  const Op op = work_us > 0.0 ? Op::kCompute : Op::kEcho;
  for (std::uint64_t base = 0; base < n; base += window) {
    const auto w = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(window, n - base));
    for (std::uint32_t i = 0; i < w; ++i) {
      const double arg =
          work_us > 0.0 ? work_us : static_cast<double>(base + i);
      reqs[i] = Message(op, id, arg);
    }
    const std::int64_t rt0 = obs::round_trip_begin(p);
    proto.send_batch(p, srv, mine, reqs, w, answers);
    // One timing per window; each of the w messages is credited the
    // amortized per-message latency.
    obs::round_trip_end(p, rt0, w);
    for (std::uint32_t i = 0; i < w; ++i) {
      if (answers[i].opcode == op && answers[i].value == reqs[i].value &&
          answers[i].channel == id) {
        ++verified;
      }
    }
  }
  return verified;
}

/// Client disconnect handshake.
template <typename P, typename Proto>
void client_disconnect(P& p, Proto& proto, typename P::Endpoint& srv,
                       typename P::Endpoint& mine, std::uint32_t id) {
  Message ans;
  proto.send(p, srv, mine, Message(Op::kDisconnect, id, 0.0), &ans);
  ULIPC_INVARIANT(ans.opcode == Op::kDisconnect, "disconnect not acknowledged");
}

/// Asynchronous send: enqueue a request and wake the server without waiting
/// for the reply (the paper's asynchronous IPC case: "a client process can
/// enqueue multiple asynchronous messages on to a shared queue without
/// blocking waiting for a response"). Pair with collect_reply().
template <typename P>
void async_send(P& p, typename P::Endpoint& srv, const Message& msg) {
  detail::enqueue_and_wake(p, srv, msg);
  ++p.counters().sends;
}

/// Asynchronous batched send: enqueue a burst of requests with one queue
/// pass and at most one wake-up (the later messages of the burst ride the
/// first one's wake — counters().wakeups_coalesced counts them).
template <typename P>
void async_send_batch(P& p, typename P::Endpoint& srv, const Message* msgs,
                      std::uint32_t n) {
  detail::enqueue_batch_and_wake(p, srv, msgs, n);
  p.counters().sends += n;
}

/// Collects one outstanding reply, sleeping if none has arrived yet.
template <typename P>
Message collect_reply(P& p, typename P::Endpoint& mine) {
  Message ans;
  detail::dequeue_or_sleep(p, mine, &ans, /*pre_busy_wait=*/false);
  return ans;
}

}  // namespace ulipc
