// The three closed-loop workloads. The client threads live in this process
// and drive the library through its public API; the server (or one-worker
// pool) is a forked child — the system under test — whose CPU time and
// context switches are read from /proc, and whose protocol counters and
// phase histograms are read from the channel's metrics registry.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "host.hpp"
#include "protocols/bsls.hpp"
#include "protocols/channel.hpp"
#include "runtime/server_pool.hpp"
#include "runtime/shm_channel.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using ulipc::Message;
using ulipc::NativeEndpoint;
using ulipc::NativePlatform;
using ulipc::Op;
using ulipc::PayloadPool;
using ulipc::ShmChannel;
using ulipc::TscClock;
using ulipc::obs::HistKind;
using ulipc::obs::HistogramSnapshot;
using ulipc::obs::SlotSnapshot;

constexpr WorkloadSpec kWorkloads[] = {
    {"pingpong", 1, false, false, 1, false},
    {"idle-wake", 1, false, true, 1, false},
    {"fanin-stream", 2, true, false, 16, true},
};

// What a user gets by default: adaptive BSLS starting at MAX_SPIN 20.
using Proto = ulipc::Bsls<NativePlatform>;
constexpr std::uint32_t kMaxSpin = 20;
Proto make_proto() { return Proto(kMaxSpin, ulipc::SpinMode::kAdaptive); }

constexpr std::uint32_t kMaxWindow = 16;
constexpr std::size_t kInputTable = 8192;  // seeded draws, cycled
// idle-wake think times. Past the adaptive BSLS server's equilibrium spin
// (about half the think time), so every request should pay a park and a
// wake. On the reference host the workload is bistable instead, which is
// why it is not in BENCHMARK.json: see perfbench/README.md.
constexpr std::int64_t kThinkMinNs = 150'000;
constexpr std::int64_t kThinkMaxNs = 250'000;
constexpr std::uint32_t kPayloadMinLog2 = 8;   // 256 B
constexpr std::uint32_t kPayloadMaxLog2 = 14;  // 16 KiB
constexpr double kTraceChunkS = 0.05;  // traced / untraced alternation
// A run sets up kSetups systems; the last kSessions of them each run
// kWarmupS of traffic, then an equal share of the window. Every figure is
// the median over the kKeptSessions that lost the least CPU time to the
// hypervisor; setup_s is the median over all set-ups. Short sessions let
// the selection find the quiet gaps inside a contended stretch.
constexpr int kSetups = 44;
constexpr int kSessions = 40;
constexpr std::size_t kKeptSessions = 10;
constexpr double kWarmupS = 0.1;
constexpr int kPayloadProbeOps = 20'000;

ShmChannel::Config channel_config(const WorkloadSpec& spec) {
  ShmChannel::Config cfg;
  cfg.max_clients = spec.clients;
  // The compile-time default engine, whatever the environment says.
  cfg.engines = ulipc::QueueEnginePolicy::defaults();
  if (spec.pool) cfg.shards = 1;
  if (spec.payload) {
    cfg.payload_max_bytes = 1u << kPayloadMaxLog2;
    // Every client can hold a full window of loans in one class, so a
    // loan never fails for lack of slots.
    cfg.payload_slots_per_class = spec.clients * spec.window;
  }
  return cfg;
}

// ---- seeded inputs (the library only ever sees these values) ----

struct Inputs {
  std::vector<std::uint64_t> think_ticks;
  std::vector<std::uint32_t> payload_bytes;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::uint32_t client) {
  ulipc::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (client + 1)));
  Inputs in;
  if (spec.think) {
    in.think_ticks.resize(kInputTable);
    for (auto& t : in.think_ticks) {
      const double ns = static_cast<double>(rng.range(kThinkMinNs, kThinkMaxNs));
      t = static_cast<std::uint64_t>(ns / ns_per_tick());
    }
  }
  if (spec.payload) {
    // Log-uniform over 256 B .. 16 KiB, so every size class sees traffic;
    // multiples of 64 bytes.
    in.payload_bytes.resize(kInputTable);
    for (auto& b : in.payload_bytes) {
      const double e = kPayloadMinLog2 +
                       (kPayloadMaxLog2 - kPayloadMinLog2) * rng.uniform01();
      b = std::max<std::uint32_t>(
          1u << kPayloadMinLog2,
          static_cast<std::uint32_t>(std::exp2(e)) & ~63u);
    }
  }
  return in;
}

std::uint64_t pattern_key(std::uint32_t client, std::uint64_t seq) {
  std::uint64_t s = (static_cast<std::uint64_t>(client) << 56) ^ seq;
  return ulipc::splitmix64(s);
}

// Word i of a payload is key + i. Two words per step in a GCC/Clang
// vector keeps fill and check cheap next to the IPC they surround.
using Words2 = std::uint64_t __attribute__((vector_size(16)));
constexpr Words2 kLane = {0, 1};

void fill_payload(char* dst, std::uint32_t bytes, std::uint64_t key) {
  Words2 w = kLane + key;
  for (std::uint32_t off = 0; off < bytes; off += sizeof(Words2)) {
    std::memcpy(dst + off, &w, sizeof w);
    w += 2;
  }
}

bool payload_intact(const char* src, std::uint32_t bytes, std::uint64_t key) {
  Words2 want = kLane + key;
  Words2 diff = {0, 0};
  for (std::uint32_t off = 0; off < bytes; off += sizeof(Words2)) {
    Words2 got;
    std::memcpy(&got, src + off, sizeof got);
    diff |= got ^ want;
    want += 2;
  }
  return (diff[0] | diff[1]) == 0;
}

std::uint64_t ticks_to_ns(std::uint64_t ticks) {
  return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                    ns_per_tick());
}

// ---- the system under test ----

int serve(ShmChannel& ch, const WorkloadSpec& spec, int cpu, pid_t parent) {
  // Never outlive the benchmark, whatever ends it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) return 3;
  ulipc::pin_to_cpu(cpu);
  Proto proto = make_proto();
  if (spec.pool) {
    ulipc::ServerPoolOptions opts;
    opts.expected_clients = spec.clients;
    const ulipc::ServerPoolResult r =
        ulipc::run_server_pool(ch, proto, opts, NativePlatform::Config{});
    return r.crashed_clients == 0 && r.crashed_workers == 0 ? 0 : 4;
  }
  ch.register_server();
  NativePlatform plat;
  ch.bind_server_obs(plat);
  ulipc::run_echo_server(
      plat, proto, ch.server_endpoint(),
      [&](std::uint32_t id) -> NativeEndpoint& {
        return ch.client_endpoint(id);
      },
      spec.clients);
  ch.deregister_server();
  return 0;
}

struct SetupTimes {
  double create_s = 0;   // region + ShmChannel::create
  double spawn_s = 0;    // fork of the server
  double connect_s = 0;  // every client's connect handshake
  [[nodiscard]] double total() const { return create_s + spawn_s + connect_s; }
};

/// One set-up system: channel, server child, connected client platforms.
/// Member order is teardown order reversed: an unjoined server is killed
/// and reaped before the mapping goes away.
class Session {
 public:
  Session(const WorkloadSpec& spec, const CpuPlan& plan) : spec_(spec) {
    const ShmChannel::Config cfg = channel_config(spec);
    const std::int64_t t0 = ulipc::now_ns();
    region_ = ulipc::ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
    const std::int64_t t1 = ulipc::now_ns();
    ShmChannel* ch = &*channel_;
    const int cpu = plan.cpus[0];
    const pid_t parent = getpid();
    server_ = ulipc::ChildProcess::spawn(
        [ch, &spec, cpu, parent] { return serve(*ch, spec, cpu, parent); });
    const std::int64_t t2 = ulipc::now_ns();
    plats_.reserve(spec.clients);
    protos_.reserve(spec.clients);
    for (std::uint32_t i = 0; i < spec.clients; ++i) {
      plats_.emplace_back();
      protos_.push_back(make_proto());
      ch->bind_client_obs(plats_[i], i);
      ch->register_client(i);
      if (spec.pool) {
        ulipc::pool_client_connect(plats_[i], protos_[i], *ch, i,
                                   ulipc::PlacementPolicy::kLeastLoaded);
      } else {
        ulipc::client_connect(plats_[i], protos_[i], ch->server_endpoint(),
                              ch->client_endpoint(i), i);
      }
    }
    const std::int64_t t3 = ulipc::now_ns();
    times_ = {static_cast<double>(t1 - t0) / 1e9,
              static_cast<double>(t2 - t1) / 1e9,
              static_cast<double>(t3 - t2) / 1e9};
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Disconnects every client and reaps the server; false if the server
  /// did not exit cleanly.
  bool close() {
    ShmChannel& ch = *channel_;
    for (std::uint32_t i = 0; i < spec_.clients; ++i) {
      if (spec_.pool) {
        ulipc::pool_client_disconnect(plats_[i], protos_[i], ch, i);
      } else {
        ulipc::client_disconnect(plats_[i], protos_[i], ch.server_endpoint(),
                                 ch.client_endpoint(i), i);
        ch.deregister_client(i);
      }
    }
    return server_.join() == 0;
  }

  [[nodiscard]] const SetupTimes& times() const { return times_; }
  [[nodiscard]] ShmChannel& channel() { return *channel_; }
  [[nodiscard]] pid_t server_pid() const { return server_.pid(); }
  [[nodiscard]] NativePlatform& plat(std::uint32_t i) { return plats_[i]; }
  [[nodiscard]] Proto& proto(std::uint32_t i) { return protos_[i]; }
  [[nodiscard]] std::uint32_t server_slot() const {
    return spec_.pool ? channel_->duplex_obs_slot(0)
                      : ShmChannel::server_obs_slot();
  }

 private:
  const WorkloadSpec& spec_;
  ulipc::ShmRegion region_;
  std::optional<ShmChannel> channel_;
  ulipc::ChildProcess server_;
  std::vector<NativePlatform> plats_;
  std::vector<Proto> protos_;
  SetupTimes times_;
};

// ---- the measured window ----

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// Server-side and registry state at one edge of the window.
struct Edge {
  std::int64_t wall_ns = 0;
  std::int64_t steal_ns = 0;
  std::int64_t server_cpu_ns = 0;
  CtxCount server_ctx;
  std::vector<SlotSnapshot> slots;  // [0] server, [1 + i] client i
};

Edge take_edge(Session& s, std::uint32_t clients) {
  Edge e;
  e.wall_ns = ulipc::now_ns();
  e.steal_ns = host_steal_ns();
  e.server_cpu_ns = process_cpu_ns(s.server_pid());
  e.server_ctx = process_ctx_switches(s.server_pid());
  e.slots.resize(1 + clients);
  ulipc::obs::ObsHeader& oh = s.channel().obs();
  (void)oh.slot(s.server_slot()).read_snapshot(&e.slots[0]);
  for (std::uint32_t i = 0; i < clients; ++i) {
    (void)oh.slot(s.channel().client_obs_slot(i)).read_snapshot(&e.slots[1 + i]);
  }
  return e;
}

/// Phase switches, made by client 0 between its own requests.
struct Control {
  std::atomic<int> phase{kWarmup};
  std::atomic<int> traced{0};
  bool trace = false;
  std::uint64_t measure_at = 0;  // ticks
  std::uint64_t stop_at = 0;
  std::uint64_t chunk_ticks = 1;
  Edge start;
  Edge end;
};

struct Client {
  std::uint32_t id = 0;
  Inputs inputs;
  std::size_t cursor = 0;
  std::uint64_t next_seq = 1;
  // Every request, all phases.
  std::uint64_t attempted = 0;
  std::uint64_t bad_reply = 0;    // wrong opcode / channel / value / token
  std::uint64_t bad_payload = 0;  // payload bytes not intact
  std::uint64_t loan_failed = 0;
  std::string error;              // exception text, if the loop died
  // The measured window.
  std::uint64_t win_msgs = 0;
  std::uint64_t win_verified = 0;
  std::uint64_t win_bytes = 0;
  std::uint64_t win_think_ticks = 0;
  std::int64_t cpu0 = 0, cpu1 = 0;    // thread CPU at the window edges
  std::int64_t vcsw0 = 0, vcsw1 = 0;  // thread voluntary switches
  Histogram rtt;         // untraced calls (all of them without --trace)
  Histogram rtt_traced;  // calls in traced chunks
  // Traced chunks only.
  Histogram loan_publish;     // per request: loan + publish, ns
  Histogram release;          // per request: release, ns
  std::uint64_t gap_ticks = 0;  // send return -> next send call
  std::uint64_t gaps = 0;
  std::uint64_t traced_wall_ticks = 0;
  std::uint64_t traced_msgs = 0;
  std::uint64_t last_send_end = 0;
  std::uint64_t last_request_end = 0;
  std::optional<SpanLog> spans;

  [[nodiscard]] std::uint64_t failed() const {
    return bad_reply + bad_payload + loan_failed + (error.empty() ? 0 : 1);
  }
};

/// Bookkeeping shared by both request shapes once the reply is in.
void finish_request(Client& c, SpanLog* log, std::uint64_t t0,
                    std::uint64_t t1, bool measuring, std::uint32_t msgs) {
  if (measuring) {
    (log != nullptr ? c.rtt_traced : c.rtt).record(ticks_to_ns(t1 - t0));
  }
  if (log != nullptr) {
    log->child(SpanName::kSend, t0, t1);
    log->end_request();
    const std::uint64_t now = TscClock::now();
    if (c.last_send_end != 0) {
      c.gap_ticks += t0 - c.last_send_end;
      ++c.gaps;
    }
    // The wall clock of a traced stretch runs from its first request's
    // start, then from each request's end to the next one's.
    c.traced_wall_ticks +=
        now - (c.last_request_end != 0 ? c.last_request_end
                                       : log->request_start());
    c.traced_msgs += msgs;
    c.last_request_end = now;
  } else {
    c.last_request_end = 0;  // a traced stretch restarts its wall clock
  }
  c.last_send_end = t1;
}

void scalar_request(Client& c, Session& s, Proto& proto,
                    NativePlatform& plat, const WorkloadSpec& spec,
                    bool measuring, SpanLog* log) {
  ShmChannel& ch = s.channel();
  if (log != nullptr) log->begin_request();
  if (spec.think) {
    const std::uint64_t a = TscClock::now();
    spin_until_tick(a + c.inputs.think_ticks[c.cursor++ % kInputTable]);
    const std::uint64_t b = TscClock::now();
    if (measuring) c.win_think_ticks += b - a;
    if (log != nullptr) log->child(SpanName::kThink, a, b);
  }
  const std::uint64_t f0 = log != nullptr ? TscClock::now() : 0;
  const std::uint64_t seq = c.next_seq++;
  const Message req(Op::kEcho, c.id, static_cast<double>(seq));
  Message ans;
  const std::uint64_t t0 = TscClock::now();
  proto.send(plat, ch.server_endpoint(), ch.client_endpoint(c.id), req, &ans);
  const std::uint64_t t1 = TscClock::now();
  const bool ok = ans.opcode == Op::kEcho && ans.channel == c.id &&
                  ans.value == static_cast<double>(seq) &&
                  ans.ext_offset == PayloadPool::kNoPayload;
  ++c.attempted;
  if (!ok) ++c.bad_reply;
  if (measuring) {
    ++c.win_msgs;
    if (ok) {
      ++c.win_verified;
      c.win_bytes += sizeof(Message);
    }
  }
  if (log != nullptr) {
    log->child(SpanName::kFill, f0, t0);
    log->child(SpanName::kVerify, t1, TscClock::now());
  }
  finish_request(c, log, t0, t1, measuring, 1);
}

void batch_request(Client& c, Session& s, Proto& proto, NativePlatform& plat,
                   const WorkloadSpec& spec, bool measuring, SpanLog* log) {
  ShmChannel& ch = s.channel();
  PayloadPool& plane = *ch.payload_plane();
  NativeEndpoint& srv = ch.shard_endpoint(ch.shard_map().assignment(c.id));
  const std::uint32_t w = spec.window;
  Message reqs[kMaxWindow];
  Message answers[kMaxWindow];
  std::uint64_t tokens[kMaxWindow];
  std::uint32_t bytes[kMaxWindow];
  bool seen[kMaxWindow] = {};
  const auto tick = [log] { return log != nullptr ? TscClock::now() : 0; };

  if (log != nullptr) log->begin_request();
  const std::uint64_t base = c.next_seq;
  c.next_seq += w;
  for (std::uint32_t i = 0; i < w; ++i) {
    const std::uint32_t sz = c.inputs.payload_bytes[c.cursor++ % kInputTable];
    const std::uint64_t a = tick();
    const std::uint64_t tok = plane.loan(sz);
    const std::uint64_t b = tick();
    std::uint64_t d = b;
    std::uint64_t e = b;
    if (tok == PayloadPool::kNoPayload) {
      ++c.loan_failed;
      bytes[i] = 0;
    } else {
      fill_payload(plane.data(tok), sz, pattern_key(c.id, base + i));
      d = tick();
      plane.publish(tok, sz);
      e = tick();
      bytes[i] = sz;
    }
    if (log != nullptr) {
      log->child(SpanName::kLoan, a, b);
      log->child(SpanName::kFill, b, d);
      log->child(SpanName::kPublish, d, e);
      c.loan_publish.record(ticks_to_ns((b - a) + (e - d)));
    }
    tokens[i] = tok;
    reqs[i] = Message(Op::kEcho, c.id, static_cast<double>(base + i), tok);
  }

  const std::uint64_t t0 = TscClock::now();
  proto.send_batch(plat, srv, ch.client_endpoint(c.id), reqs, w, answers);
  const std::uint64_t t1 = TscClock::now();

  // Replies may come back in any order: match each by its echoed value.
  std::uint32_t good = 0;
  for (std::uint32_t j = 0; j < w; ++j) {
    const Message& a = answers[j];
    const double rel = a.value - static_cast<double>(base);
    const bool in_range = rel >= 0.0 && rel < w && rel == std::floor(rel);
    const auto i = in_range ? static_cast<std::uint32_t>(rel) : 0u;
    if (!in_range || seen[i] || a.opcode != Op::kEcho || a.channel != c.id ||
        a.ext_offset != tokens[i]) {
      continue;
    }
    seen[i] = true;
    bool intact = true;
    if (tokens[i] != PayloadPool::kNoPayload) {
      const std::uint64_t v0 = tick();
      const std::string_view got = plane.read(tokens[i]);
      intact = got.size() == bytes[i] &&
               payload_intact(got.data(), bytes[i], pattern_key(c.id, base + i));
      const std::uint64_t v1 = tick();
      plane.release(tokens[i]);
      tokens[i] = PayloadPool::kNoPayload;
      if (log != nullptr) {
        const std::uint64_t v2 = TscClock::now();
        log->child(SpanName::kVerify, v0, v1);
        log->child(SpanName::kRelease, v1, v2);
        c.release.record(ticks_to_ns(v2 - v1));
      }
    }
    if (!intact) {
      ++c.bad_payload;
      continue;
    }
    ++good;
    if (measuring) c.win_bytes += bytes[i];
  }
  for (std::uint32_t i = 0; i < w; ++i) {
    if (seen[i]) continue;
    ++c.bad_reply;  // no reply matched this request
    if (tokens[i] != PayloadPool::kNoPayload) plane.release(tokens[i]);
  }
  c.attempted += w;
  if (measuring) {
    c.win_msgs += w;
    c.win_verified += good;
  }
  finish_request(c, log, t0, t1, measuring, w);
}

/// One client thread's closed loop, from warm-up to stop. Client 0 also
/// switches the phases and takes the window-edge snapshots.
void client_loop(Client& c, Session& s, const WorkloadSpec& spec,
                 Control& ctl) {
  NativePlatform& plat = s.plat(c.id);
  Proto& proto = s.proto(c.id);
  const bool leader = c.id == 0;
  int seen = kWarmup;
  while (seen != kStop) {
    int phase = ctl.phase.load(std::memory_order_acquire);
    if (leader) {
      const std::uint64_t now = TscClock::now();
      if (phase == kWarmup && now >= ctl.measure_at) {
        ctl.start = take_edge(s, spec.clients);
        phase = kMeasure;
        ctl.phase.store(phase, std::memory_order_release);
      } else if (phase == kMeasure && now >= ctl.stop_at) {
        ctl.end = take_edge(s, spec.clients);
        phase = kStop;
        ctl.phase.store(phase, std::memory_order_release);
      }
      if (ctl.trace && phase == kMeasure) {
        ctl.traced.store(
            static_cast<int>(((now - ctl.measure_at) / ctl.chunk_ticks) & 1),
            std::memory_order_relaxed);
      }
    }
    if (phase != seen) {
      const std::int64_t cpu = ulipc::thread_cpu_ns();
      const std::int64_t vcsw = thread_voluntary_switches();
      if (seen == kWarmup) {  // also when a short window was missed whole
        c.cpu0 = cpu;
        c.vcsw0 = vcsw;
      }
      if (phase == kStop) {
        c.cpu1 = cpu;
        c.vcsw1 = vcsw;
      }
      seen = phase;
      if (phase == kStop) break;
    }
    const bool measuring = phase == kMeasure;
    SpanLog* log = measuring && ctl.traced.load(std::memory_order_relaxed)
                       ? &*c.spans
                       : nullptr;
    if (spec.window > 1) {
      batch_request(c, s, proto, plat, spec, measuring, log);
    } else {
      scalar_request(c, s, proto, plat, spec, measuring, log);
    }
  }
}

/// Loan / publish / release timed one by one on an idle channel's plane:
/// the payload figures of the workloads that loan nothing themselves.
void payload_probe(ShmChannel& ch, std::uint64_t seed, Histogram* loan_publish,
                   Histogram* release) {
  PayloadPool* plane = ch.payload_plane();
  if (plane == nullptr) return;
  ulipc::Xoshiro256 rng(seed);
  const std::uint32_t max_bytes = plane->class_slot_bytes(plane->class_count() - 1);
  for (int k = 0; k < kPayloadProbeOps; ++k) {
    const auto sz = static_cast<std::uint32_t>(rng.range(64, max_bytes)) & ~7u;
    const std::uint64_t a = TscClock::now();
    const std::uint64_t tok = plane->loan(sz);
    if (tok == PayloadPool::kNoPayload) continue;
    plane->publish(tok, sz);
    const std::uint64_t b = TscClock::now();
    plane->release(tok);
    const std::uint64_t e = TscClock::now();
    loan_publish->record(ticks_to_ns(b - a));
    release->record(ticks_to_ns(e - b));
  }
}

HistogramSnapshot hist_delta(const SlotSnapshot& a, const SlotSnapshot& b,
                             HistKind k) {
  const HistogramSnapshot& x = a.h(k);
  const HistogramSnapshot& y = b.h(k);
  HistogramSnapshot d;
  d.count = y.count - x.count;
  d.sum = y.sum - x.sum;
  for (std::uint32_t i = 0; i < ulipc::obs::HistBuckets::kBuckets; ++i) {
    d.bucket[i] = y.bucket[i] - x.bucket[i];
  }
  return d;
}

/// The counters the per-layer figures use, as b - a.
ulipc::ProtocolCounters counter_delta(const ulipc::ProtocolCounters& a,
                                      const ulipc::ProtocolCounters& b) {
  ulipc::ProtocolCounters d;
  d.sends = b.sends - a.sends;
  d.receives = b.receives - a.receives;
  d.blocks = b.blocks - a.blocks;
  d.wakeups = b.wakeups - a.wakeups;
  d.polls = b.polls - a.polls;
  d.spin_entries = b.spin_entries - a.spin_entries;
  d.spin_iters = b.spin_iters - a.spin_iters;
  d.spin_fallthroughs = b.spin_fallthroughs - a.spin_fallthroughs;
  d.sem_absorbs = b.sem_absorbs - a.sem_absorbs;
  d.batch_dequeues = b.batch_dequeues - a.batch_dequeues;
  d.wakeups_coalesced = b.wakeups_coalesced - a.wakeups_coalesced;
  return d;
}

void add_hist(HistogramSnapshot* into, const HistogramSnapshot& h) {
  into->count += h.count;
  into->sum += h.sum;
  for (std::uint32_t i = 0; i < ulipc::obs::HistBuckets::kBuckets; ++i) {
    into->bucket[i] += h.bucket[i];
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Everything one measured session leaves behind.
struct SessionRun {
  std::vector<Client> clients;
  Edge start;
  Edge end;
  std::uint64_t epoch_tick = 0;  // window start, for the span file
  std::uint64_t conservation_misses = 0;
  Histogram probe_loan_publish;  // traced scalar workloads only
  Histogram probe_release;
};

/// Drives one set-up session through warm-up and a window of `window_s`.
void measure_session(Session& s, const WorkloadSpec& spec,
                     const RunOptions& opt, const CpuPlan& plan,
                     double window_s, std::uint64_t seed, SessionRun* run,
                     std::vector<std::string>* notes) {
  ShmChannel& ch = s.channel();
  PayloadPool* plane = ch.payload_plane();
  const std::uint32_t nodes_free0 = ch.node_pool().free_count();
  const std::uint32_t slots_free0 = plane != nullptr ? plane->free_count() : 0;

  std::vector<Client>& clients = run->clients;
  clients.resize(spec.clients);
  for (std::uint32_t i = 0; i < spec.clients; ++i) {
    clients[i].id = i;
    clients[i].inputs = make_inputs(spec, seed, i);
    if (opt.trace) clients[i].spans.emplace(i, ns_per_tick());
  }
  Control ctl;
  ctl.trace = opt.trace;
  const double tps = 1e9 / ns_per_tick();  // ticks per second
  ctl.measure_at =
      TscClock::now() + static_cast<std::uint64_t>(kWarmupS * tps);
  ctl.stop_at = ctl.measure_at + static_cast<std::uint64_t>(window_s * tps);
  ctl.chunk_ticks = static_cast<std::uint64_t>(kTraceChunkS * tps);

  const auto guarded = [&](Client& c) {
    try {
      client_loop(c, s, spec, ctl);
    } catch (const std::exception& e) {
      c.error = e.what();
      ctl.phase.store(kStop, std::memory_order_release);
    }
  };
  std::vector<std::thread> others;
  for (std::uint32_t i = 1; i < spec.clients; ++i) {
    others.emplace_back([&, i] {
      try {
        ulipc::pin_to_cpu(plan.cpus[1 + i]);
      } catch (const std::exception& e) {
        clients[i].error = e.what();
        return;
      }
      guarded(clients[i]);
    });
  }
  guarded(clients[0]);
  for (auto& t : others) t.join();
  run->start = std::move(ctl.start);
  run->end = std::move(ctl.end);
  run->epoch_tick = ctl.measure_at;

  // Conservation: with every reply collected, every node and payload slot
  // is back on its free list.
  if (ch.node_pool().free_count() != nodes_free0) {
    ++run->conservation_misses;
    notes->push_back(fmt("node pool free count %.0f before, %.0f after",
                         nodes_free0, ch.node_pool().free_count()));
  }
  if (plane != nullptr && plane->free_count() != slots_free0) {
    ++run->conservation_misses;
    notes->push_back(fmt("payload slots free %.0f before, %.0f after",
                         slots_free0, plane->free_count()));
  }
  if (opt.trace && !spec.payload) {
    payload_probe(ch, seed, &run->probe_loan_publish, &run->probe_release);
  }
}

struct Totals {
  Histogram rtt;         // untraced calls
  Histogram rtt_traced;
  Histogram loan_publish;
  Histogram release;
  std::uint64_t verified = 0, msgs = 0, bytes = 0;
  std::uint64_t think_ticks = 0, gap_ticks = 0, gaps = 0;
  std::uint64_t traced_wall = 0, traced_msgs = 0;
  double client_cpu_ns = 0, client_vcsw = 0;
  double span_ns[static_cast<std::size_t>(SpanName::kCount)] = {};
  [[nodiscard]] double sn(SpanName n) const {
    return span_ns[static_cast<std::size_t>(n)];
  }
};

Totals totals(const SessionRun& r) {
  Totals t;
  for (const Client& c : r.clients) {
    t.rtt.merge(c.rtt);
    t.rtt_traced.merge(c.rtt_traced);
    t.loan_publish.merge(c.loan_publish);
    t.release.merge(c.release);
    t.verified += c.win_verified;
    t.msgs += c.win_msgs;
    t.bytes += c.win_bytes;
    t.think_ticks += c.win_think_ticks;
    t.gap_ticks += c.gap_ticks;
    t.gaps += c.gaps;
    t.traced_wall += c.traced_wall_ticks;
    t.traced_msgs += c.traced_msgs;
    t.client_cpu_ns += static_cast<double>(c.cpu1 - c.cpu0);
    t.client_vcsw += static_cast<double>(c.vcsw1 - c.vcsw0);
    if (c.spans) {
      for (std::size_t k = 0; k < std::size(t.span_ns); ++k) {
        t.span_ns[k] += c.spans->total_ns(static_cast<SpanName>(k));
      }
    }
  }
  // Client CPU outside think time (think is a busy spin).
  t.client_cpu_ns -= static_cast<double>(ticks_to_ns(t.think_ticks));
  return t;
}

/// End-to-end figures of one session's window (setup_s and shm_bytes are
/// added by the caller).
std::vector<Metric> end_to_end(const SessionRun& r, const Totals& t) {
  const double window_ns = static_cast<double>(r.end.wall_ns - r.start.wall_ns);
  const double server_cpu_ns =
      static_cast<double>(r.end.server_cpu_ns - r.start.server_cpu_ns);
  const double v = static_cast<double>(t.verified);
  return {
      {"throughput_msgs_per_ms", v / (window_ns / 1e6), "msgs/ms"},
      {"rtt_p50_us", t.rtt.percentile(50) / 1e3, "us"},
      {"rtt_p99_us", t.rtt.percentile(99) / 1e3, "us"},
      {"payload_bytes_per_s", static_cast<double>(t.bytes) / (window_ns / 1e9),
       "B/s"},
      {"cpu_us_per_msg", ratio(server_cpu_ns + t.client_cpu_ns, v) / 1e3, "us"},
  };
}

/// Per-layer figures of one session's traced window (runtime.setup.* and
/// the probes are added by the callers).
std::vector<Metric> per_layer(const SessionRun& r, const Totals& t,
                              const WorkloadSpec& spec) {
  const SlotSnapshot& s0 = r.start.slots[0];
  const SlotSnapshot& s1 = r.end.slots[0];
  const ulipc::ProtocolCounters srv = counter_delta(s0.counters, s1.counters);
  ulipc::ProtocolCounters cli;
  HistogramSnapshot reply_path;
  for (std::uint32_t i = 0; i < spec.clients; ++i) {
    const SlotSnapshot& a = r.start.slots[1 + i];
    const SlotSnapshot& b = r.end.slots[1 + i];
    cli += counter_delta(a.counters, b.counters);
    add_hist(&reply_path, hist_delta(a, b, HistKind::kReplyPathNs));
  }
  const double srx = static_cast<double>(srv.receives);
  const double csx = static_cast<double>(cli.sends);
  const auto per = [](std::uint64_t n, double d) {
    return ratio(static_cast<double>(n), d);
  };
  const auto hit = [](const ulipc::ProtocolCounters& c) {
    return ratio(static_cast<double>(c.spin_entries - c.spin_fallthroughs),
                 static_cast<double>(c.spin_entries));
  };
  const double v = static_cast<double>(t.verified);
  const double window_ns =
      static_cast<double>(r.end.wall_ns - r.start.wall_ns);
  const double server_cpu_ns =
      static_cast<double>(r.end.server_cpu_ns - r.start.server_cpu_ns);
  const auto ctx = [&](std::int64_t CtxCount::*field) {
    return ratio(static_cast<double>(r.end.server_ctx.*field -
                                     r.start.server_ctx.*field),
                 v);
  };
  const auto phase_p50 = [&](HistKind k) {
    return hist_delta(s0, s1, k).percentile(50);
  };
  const double tm = static_cast<double>(t.traced_msgs);
  const double attributed =
      t.sn(SpanName::kThink) + t.sn(SpanName::kFill) + t.sn(SpanName::kLoan) +
      t.sn(SpanName::kPublish) + t.sn(SpanName::kSend) +
      t.sn(SpanName::kVerify) + t.sn(SpanName::kRelease);
  const double wall = static_cast<double>(ticks_to_ns(t.traced_wall));
  const double p50 = t.rtt.percentile(50);
  const Histogram& loan_publish =
      spec.payload ? t.loan_publish : r.probe_loan_publish;
  const Histogram& release = spec.payload ? t.release : r.probe_release;
  return {
      {"protocols.wakeups_per_msg.server", per(srv.wakeups, srx), "1/msg"},
      {"protocols.wakeups_per_msg.client", per(cli.wakeups, csx), "1/msg"},
      {"protocols.blocks_per_msg.server", per(srv.blocks, srx), "1/msg"},
      {"protocols.blocks_per_msg.client", per(cli.blocks, csx), "1/msg"},
      {"protocols.sem_absorbs_per_msg.server", per(srv.sem_absorbs, srx),
       "1/msg"},
      {"protocols.sem_absorbs_per_msg.client", per(cli.sem_absorbs, csx),
       "1/msg"},
      {"protocols.polls_per_msg.server", per(srv.polls, srx), "1/msg"},
      {"protocols.polls_per_msg.client", per(cli.polls, csx), "1/msg"},
      {"protocols.spin_iters_per_msg.server", per(srv.spin_iters, srx),
       "1/msg"},
      {"protocols.spin_iters_per_msg.client", per(cli.spin_iters, csx),
       "1/msg"},
      {"protocols.spin_hit_ratio.server", hit(srv), "ratio"},
      {"protocols.spin_hit_ratio.client", hit(cli), "ratio"},
      {"protocols.coalesced_per_msg",
       per(srv.wakeups_coalesced + cli.wakeups_coalesced, csx), "1/msg"},
      {"protocols.msgs_per_batch_dequeue.server",
       per(srv.receives, static_cast<double>(srv.batch_dequeues)), "msgs"},
      {"runtime.server_cpu_us_per_msg", ratio(server_cpu_ns, v) / 1e3, "us"},
      {"runtime.client_cpu_us_per_msg", ratio(t.client_cpu_ns, v) / 1e3, "us"},
      {"runtime.server_vcsw_per_msg", ctx(&CtxCount::voluntary), "1/msg"},
      {"runtime.server_ivcsw_per_msg", ctx(&CtxCount::involuntary), "1/msg"},
      {"runtime.client_vcsw_per_msg", ratio(t.client_vcsw, v), "1/msg"},
      {"runtime.host_steal_pct",
       ratio(static_cast<double>(r.end.steal_ns - r.start.steal_ns),
             window_ns * (spec.clients + 1)) * 100.0,
       "%"},
      {"obs.phase.queue_residency_p50_ns",
       phase_p50(HistKind::kQueueResidencyNs), "ns"},
      {"obs.phase.wake_in_flight_req_p50_ns",
       phase_p50(HistKind::kWakeInFlightNs), "ns"},
      {"obs.phase.service_p50_ns", phase_p50(HistKind::kServiceNs), "ns"},
      {"obs.phase.reply_path_p50_ns", reply_path.percentile(50), "ns"},
      {"obs.span_samples", static_cast<double>(reply_path.count), "count"},
      {"queue.payload.loan_publish_p50_ns", loan_publish.percentile(50), "ns"},
      {"queue.payload.release_p50_ns", release.percentile(50), "ns"},
      {"bench.think_us",
       ratio(static_cast<double>(ticks_to_ns(t.gap_ticks)),
             static_cast<double>(t.gaps)) / 1e3,
       "us"},
      {"bench.fill_verify_ns_per_msg",
       ratio(t.sn(SpanName::kFill) + t.sn(SpanName::kVerify), tm), "ns"},
      {"bench.unattributed_pct", ratio(wall - attributed, wall) * 100.0, "%"},
      {"bench.trace_overhead_pct",
       ratio(t.rtt_traced.percentile(50) - p50, p50) * 100.0, "%"},
  };
}

/// Per-name median over the sessions that lost the least CPU time to the
/// hypervisor: the kKeptSessions least stolen, plus every session that
/// ties with the last of them (on a quiet host that is all of them).
/// Every session reports the same names in the same order.
std::vector<Metric> median_by_name(
    const std::vector<std::vector<Metric>>& sessions,
    const std::vector<double>& steal) {
  std::vector<Metric> out;
  if (sessions.empty()) return out;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[std::min(sorted.size(), kKeptSessions) - 1];
  for (std::size_t k = 0; k < sessions[0].size(); ++k) {
    std::vector<double> vals;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (steal[s] <= limit) vals.push_back(sessions[s][k].value);
    }
    out.push_back({sessions[0][k].name, median(vals), sessions[0][k].unit});
  }
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint32_t cpus_needed(const WorkloadSpec& spec, bool trace) {
  const std::uint32_t threads = 1 + spec.clients;
  return trace ? std::max<std::uint32_t>(threads, 3) : threads;
}

std::vector<Metric> run_workload(const WorkloadSpec& spec,
                                 const RunOptions& opt, const CpuPlan& plan,
                                 Verdict* verdict,
                                 std::vector<std::string>* notes) {
  ulipc::pin_to_cpu(plan.cpus[1]);
  (void)ns_per_tick();  // calibrate once, before any fork inherits it

  const double window_s = opt.seconds / kSessions;
  std::vector<double> create_s, spawn_s, connect_s, total_s;
  std::vector<std::vector<Metric>> per_session;
  std::vector<double> steal_ms;  // per measured session
  std::vector<SessionRun> runs;
  Histogram rtt_all;
  std::uint64_t msgs = 0, verified = 0, conservation = 0, server_errors = 0;
  for (int k = 0; k < kSetups; ++k) {
    auto s = std::make_unique<Session>(spec, plan);
    create_s.push_back(s->times().create_s);
    spawn_s.push_back(s->times().spawn_s);
    connect_s.push_back(s->times().connect_s);
    total_s.push_back(s->times().total());
    if (k >= kSetups - kSessions) {
      SessionRun& r = runs.emplace_back();
      measure_session(*s, spec, opt, plan, window_s,
                      opt.seed + static_cast<std::uint64_t>(k), &r, notes);
      conservation += r.conservation_misses;
      bool complete = !r.start.slots.empty() && !r.end.slots.empty();
      for (const Client& c : r.clients) {
        verdict->attempted += c.attempted;
        verdict->failed += c.failed();
        if (!c.error.empty()) {
          notes->push_back("client error: " + c.error);
          complete = false;
        }
      }
      if (complete) {
        const Totals t = totals(r);
        per_session.push_back(opt.trace ? per_layer(r, t, spec)
                                        : end_to_end(r, t));
        steal_ms.push_back(
            static_cast<double>(r.end.steal_ns - r.start.steal_ns) / 1e6);
        rtt_all.merge(t.rtt);
        msgs += t.msgs;
        verified += t.verified;
      }
      if (!opt.trace) {  // keep the traced run's spans, drop the rest
        r.clients.clear();
      }
    }
    if (!s->close()) {
      ++server_errors;
      notes->push_back("server exited with an error");
    }
  }
  verdict->failed += conservation + server_errors;
  if (verified == 0) {
    notes->push_back("no verified message in the windows");
    ++verdict->failed;
  }
  if (verdict->attempted == 0) verdict->attempted = 1;

  notes->push_back(fmt("%.0f sessions of %.3f s: %.0f messages timed",
                       kSessions, window_s, static_cast<double>(msgs)));
  notes->push_back(fmt("failed_ratio %.6g (%.0f failed, %.0f conservation "
                       "misses)",
                       ratio(static_cast<double>(verdict->failed),
                             static_cast<double>(verdict->attempted)),
                       static_cast<double>(verdict->failed),
                       static_cast<double>(conservation)));
  const double tail = tail_percentile(rtt_all.count());
  notes->push_back(fmt("rtt samples %.0f, one per timed call; p%g = %.3f us "
                       "(the highest percentile with ten samples beyond it)",
                       static_cast<double>(rtt_all.count()), tail,
                       rtt_all.percentile(tail) / 1e3));

  std::vector<double> sorted_steal = steal_ms;
  std::sort(sorted_steal.begin(), sorted_steal.end());
  if (!sorted_steal.empty()) {
    notes->push_back(fmt("host steal per session (ms, all CPUs): min %.0f, "
                         "median %.0f, max %.0f; figures are medians over "
                         "the 10 least stolen and their ties",
                         sorted_steal.front(), median(sorted_steal),
                         sorted_steal.back()));
  }
  std::vector<Metric> m = median_by_name(per_session, steal_ms);
  if (!opt.trace) {
    const double failed = static_cast<double>(verdict->failed);
    const double attempted = static_cast<double>(verdict->attempted);
    m.push_back({"verified_ratio",
                 std::max(0.0, ratio(attempted - failed, attempted)), "ratio"});
    m.push_back({"setup_s", median(total_s), "s"});
    m.push_back({"shm_bytes",
                 static_cast<double>(
                     ShmChannel::required_bytes(channel_config(spec))),
                 "bytes"});
    return m;
  }
  m.push_back({"runtime.setup.create_ms", median(create_s) * 1e3, "ms"});
  m.push_back({"runtime.setup.spawn_ms", median(spawn_s) * 1e3, "ms"});
  m.push_back({"runtime.setup.connect_ms", median(connect_s) * 1e3, "ms"});

  if (!opt.trace_out.empty()) {
    if (std::FILE* f = std::fopen(opt.trace_out.c_str(), "w")) {
      std::fprintf(f, "thread\ttrace\tspan\tparent\tname\tstart_ns\tend_ns\n");
      std::uint64_t dropped = 0;
      for (const SessionRun& r : runs) {
        for (const Client& c : r.clients) {
          c.spans->write(f, runs.front().epoch_tick);
          dropped += c.spans->dropped();
        }
      }
      std::fclose(f);
      notes->push_back("spans written to " + opt.trace_out +
                       fmt(" (%.0f more aggregated, not kept)",
                           static_cast<double>(dropped)));
    } else {
      notes->push_back("could not write spans to " + opt.trace_out);
    }
  }
  return m;
}

}  // namespace perfbench
