#include "runtime/harness.hpp"

#include <unistd.h>

#include <vector>

#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "runtime/sysv_transport.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {

namespace {

NativePlatform make_platform(const NativeRunConfig& cfg) {
  NativePlatform::Config pc;
  pc.sem = cfg.sem;
  pc.multiprocessor = cfg.multiprocessor_waits;
  pc.full_sleep_ns = cfg.full_sleep_ns;
  return NativePlatform(pc);
}

void maybe_pin(const NativeRunConfig& cfg, int logical_cpu) {
  if (cfg.pin_single_cpu) {
    pin_to_cpu(0);  // serialize everyone on one core: the uniprocessor rig
  } else {
    pin_to_cpu_wrapped(logical_cpu);
  }
}

int server_main(const NativeRunConfig& cfg, ShmChannel& ch) {
  maybe_pin(cfg, 0);
  ch.register_server();
  ShmReport& report = ch.header().server_report;
  report.ctx_start = ctx_switches_self();
  report.wall_start_ns = now_ns();

  if (cfg.protocol == ProtocolKind::kSysv) {
    SysvTransport transport(ch);
    report.server = transport.run_server(cfg.clients, cfg.server_work_us);
  } else {
    NativePlatform plat = make_platform(cfg);
    ch.bind_server_obs(plat);
    with_protocol<NativePlatform>(cfg.protocol, cfg.max_spin, [&](auto proto) {
      auto reply_ep = [&](std::uint32_t id) -> NativeEndpoint& {
        return ch.client_endpoint(id);
      };
      report.server = run_echo_server(plat, proto, ch.server_endpoint(),
                                      reply_ep, cfg.clients);
    });
    report.counters = plat.counters().snapshot();
  }

  report.ctx_end = ctx_switches_self();
  report.wall_end_ns = now_ns();
  ch.deregister_server();
  return 0;
}

int client_main(const NativeRunConfig& cfg, ShmChannel& ch, std::uint32_t id) {
  maybe_pin(cfg, static_cast<int>(id) + 1);
  ShmReport& report = ch.header().client_report[id];
  report.ctx_start = ctx_switches_self();
  report.wall_start_ns = now_ns();

  if (cfg.protocol == ProtocolKind::kSysv) {
    SysvTransport transport(ch);
    transport.client_connect(id);
    ch.barrier().arrive_and_wait();
    report.verified = transport.client_echo_loop(id, cfg.messages_per_client);
    transport.client_disconnect(id);
  } else {
    NativePlatform plat = make_platform(cfg);
    ch.bind_client_obs(plat, id);
    with_protocol<NativePlatform>(cfg.protocol, cfg.max_spin, [&](auto proto) {
      NativeEndpoint& mine = ch.client_endpoint(id);
      NativeEndpoint& srv = ch.server_endpoint();
      client_connect(plat, proto, srv, mine, id);
      ch.barrier().arrive_and_wait();
      report.verified = client_echo_loop(plat, proto, srv, mine, id,
                                         cfg.messages_per_client,
                                         cfg.server_work_us);
      client_disconnect(plat, proto, srv, mine, id);
    });
    report.counters = plat.counters().snapshot();
  }

  report.ctx_end = ctx_switches_self();
  report.wall_end_ns = now_ns();
  ch.deregister_client(id);
  return 0;
}

}  // namespace

NativeRunResult run_native_experiment(const NativeRunConfig& cfg) {
  ULIPC_INVARIANT(cfg.clients >= 1 && cfg.clients <= kMaxClients,
                  "client count out of range");

  ShmChannel::Config cc;
  cc.max_clients = cfg.clients;
  cc.queue_capacity = cfg.queue_capacity;
  cc.create_sysv_queues = (cfg.protocol == ProtocolKind::kSysv);
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cc));
  ShmChannel channel = ShmChannel::create(region, cc);

  const std::int64_t t0 = now_ns();

  std::vector<ChildProcess> children;
  children.push_back(
      ChildProcess::spawn([&] { return server_main(cfg, channel); }));
  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    children.push_back(
        ChildProcess::spawn([&, i] { return client_main(cfg, channel, i); }));
    // Seat the child pid from the parent: registration is visible before
    // the client issues its first operation, so a crash at any point of its
    // life is attributable.
    channel.register_client_pid(
        i, static_cast<std::uint32_t>(children.back().pid()));
  }

  const std::vector<int> codes = join_all(children);

  NativeRunResult result;
  result.wall_ms = static_cast<double>(now_ns() - t0) / 1e6;
  result.all_children_ok = true;
  for (const int code : codes) {
    if (code != 0) result.all_children_ok = false;
  }

  const ShmChannelHeader& hdr = channel.header();
  result.server = hdr.server_report.server;
  result.throughput_msgs_per_ms = result.server.throughput_msgs_per_ms();
  result.server_counters = hdr.server_report.counters;
  result.server_ctx = hdr.server_report.ctx_delta();
  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    const ShmReport& r = hdr.client_report[i];
    result.verified_replies += r.verified;
    result.client_counters_total += r.counters;
    const CtxSwitches d = r.ctx_delta();
    result.client_ctx_total.voluntary += d.voluntary;
    result.client_ctx_total.involuntary += d.involuntary;
  }
  return result;
}

}  // namespace ulipc
