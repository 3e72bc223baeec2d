// Ablation E: server architecture — one shared receive queue vs thread per
// client ("two queues per client to implement the full-duplex virtual
// connection", paper §2.1).
//
// Native, this host. The shared-queue single-threaded server batches all
// clients through one queue; thread-per-client is the server pool with one
// shard per client, each client forced onto its own shard and stealing off,
// so every worker thread owns one client's request queue. Unlike the paper's
// duplex pair, a pool shard carries no SPSC request ring (its queue is
// MPSC-capable), the worker sleeps in a timed receive, and kMaxShards caps
// the run at 8 clients. On a small SMP the per-client threads buy parallel
// request handling at the cost of threads competing for cores.
#include <algorithm>
#include <iostream>
#include <vector>

#include "benchsupport/args.hpp"
#include "benchsupport/figure.hpp"
#include "common/affinity.hpp"
#include "common/table.hpp"
#include "protocols/bsls.hpp"
#include "runtime/harness.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"

using namespace ulipc;
using namespace ulipc::bench;

namespace {

double run_per_client(std::uint32_t clients, std::uint64_t messages) {
  ShmChannel::Config cfg;
  cfg.max_clients = clients;
  cfg.queue_capacity = 64;
  cfg.shards = clients;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);

  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* throughput = new (out_region.base()) double(0.0);

  ServerPoolOptions opts;
  opts.expected_clients = clients;
  opts.steal_batch = 0;
  ChildProcess server = ChildProcess::spawn([&] {
    const ServerPoolResult r =
        run_server_pool(channel, Bsls<NativePlatform>(20), opts);
    *throughput = r.throughput_msgs_per_ms();
    return r.echo_messages == clients * messages ? 0 : 1;
  });
  std::vector<ChildProcess> client_procs;
  for (std::uint32_t i = 0; i < clients; ++i) {
    client_procs.push_back(ChildProcess::spawn([&, i] {
      NativePlatform plat;
      Bsls<NativePlatform> proto(20);
      pool_client_connect(plat, proto, channel, i, opts.policy,
                          /*forced_shard=*/i);
      const std::uint64_t ok =
          pool_client_echo_loop(plat, proto, channel, i, messages);
      pool_client_disconnect(plat, proto, channel, i);
      return ok == messages ? 0 : 1;
    }));
  }
  bool ok = true;
  for (auto& c : client_procs) ok &= (c.join() == 0);
  ok &= (server.join() == 0);
  return ok ? *throughput : 0.0;
}

double run_shared(std::uint32_t clients, std::uint64_t messages) {
  NativeRunConfig cfg;
  cfg.protocol = ProtocolKind::kBsls;
  cfg.clients = clients;
  cfg.messages_per_client = messages;
  cfg.max_spin = 20;
  const NativeRunResult r = run_native_experiment(cfg);
  return r.all_children_ok ? r.throughput_msgs_per_ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::uint64_t messages = args.messages(4'000);
  const std::vector<int> clients = {1, 2, 3, 4};

  std::cout << "Ablation E — shared-queue server vs thread-per-client "
               "(per-client pool) server (native, " << cpu_count()
            << " CPUs)\n\n";

  FigureReport report("Ablation E", "server architecture comparison",
                      "clients", "msgs/ms");
  Series& s_shared = report.add_series("shared queue, 1 thread");
  Series& s_per_client = report.add_series("thread per client (pool)");

  std::vector<double> shared;
  std::vector<double> per_client;
  for (const int n : clients) {
    shared.push_back(run_shared(static_cast<std::uint32_t>(n), messages));
    per_client.push_back(
        run_per_client(static_cast<std::uint32_t>(n), messages));
    s_shared.x.push_back(n);
    s_shared.y.push_back(shared.back());
    s_per_client.x.push_back(n);
    s_per_client.y.push_back(per_client.back());
  }

  report.check(
      "both architectures complete every exchange",
      std::min(*std::min_element(shared.begin(), shared.end()),
               *std::min_element(per_client.begin(), per_client.end())) >
          0.0);
  // No universal winner is claimed; record the observed relationship.
  const double ratio = per_client.back() / shared.back();
  std::cout << "per-client/shared throughput at " << clients.back()
            << " clients: " << TextTable::num(ratio, 2) << "\n\n";
  return report.render(std::cout);
}
