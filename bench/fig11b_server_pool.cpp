// Figure 11b: multiprocessor scale-out with the NATIVE sharded server pool
// (companion to fig11_multiprocessor, which models the paper's 8-CPU
// Challenge in the simulator).
//
// The paper scales its server by running one server per processor; our
// ServerPool is that architecture on real hardware — W workers, each owning
// one receive-queue shard, clients spread by least-loaded placement.
// Requests carry a fixed compute cost (--work, default 5 us) so the server
// side is the bottleneck and adding workers is what buys throughput.
//
// Emits one machine-readable line per point for record_bench.sh:
//   [pool] {"workers":W,"clients":N,"msgs_per_ms":X,"cpus":C}
//
// The scaling shape checks (aggregate throughput must grow with workers,
// >= 2.5x at 4 workers) only make sense with >= 4 CPUs; on smaller hosts
// the numbers are still printed and recorded, the checks report as skipped.
#include <algorithm>
#include <iostream>
#include <vector>

#include "benchsupport/args.hpp"
#include "benchsupport/figure.hpp"
#include "common/affinity.hpp"
#include "common/table.hpp"
#include "protocols/bsls.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

using namespace ulipc;
using namespace ulipc::bench;

namespace {

struct PoolPoint {
  double msgs_per_ms = 0.0;
  std::uint64_t steal_passes = 0;
  std::uint64_t stolen_messages = 0;
  bool ok = false;
};

PoolPoint run_pool(std::uint32_t workers, std::uint32_t clients,
                   std::uint64_t messages, double work_us) {
  ShmChannel::Config cfg;
  cfg.max_clients = clients;
  cfg.queue_capacity = 256;
  cfg.shards = workers;
  ShmRegion region =
      ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);

  ShmRegion out_region = ShmRegion::create_anonymous(4096);
  auto* out = new (out_region.base()) PoolPoint();

  NativePlatform::Config pcfg;
  pcfg.multiprocessor = cpu_count() > 1;

  ChildProcess server = ChildProcess::spawn([&] {
    ServerPoolOptions opts;
    opts.expected_clients = clients;
    const ServerPoolResult r =
        run_server_pool(channel, Bsls<NativePlatform>(20), opts, pcfg,
                        /*pin_workers=*/true);
    out->msgs_per_ms = r.throughput_msgs_per_ms();
    out->steal_passes = r.steal_passes;
    out->stolen_messages = r.stolen_messages;
    return r.echo_messages ==
                   static_cast<std::uint64_t>(clients) * messages
               ? 0
               : 1;
  });

  std::vector<ChildProcess> client_procs;
  for (std::uint32_t i = 0; i < clients; ++i) {
    client_procs.push_back(ChildProcess::spawn([&, i] {
      // Workers own CPUs [0, W); clients share what is left (wrapped).
      pin_to_cpu_wrapped(static_cast<int>(workers + i));
      NativePlatform plat(pcfg);
      Bsls<NativePlatform> proto(20);
      pool_client_connect(plat, proto, channel, i,
                          PlacementPolicy::kLeastLoaded);
      const std::uint64_t ok = pool_client_echo_loop(plat, proto, channel, i,
                                                     messages, work_us);
      pool_client_disconnect(plat, proto, channel, i);
      return ok == messages ? 0 : 1;
    }));
  }

  bool ok = true;
  for (auto& c : client_procs) ok &= (c.join() == 0);
  ok &= (server.join() == 0);
  out->ok = ok;
  return *out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::uint64_t messages = args.messages(2'000);
  const double work_us = args.value_or("work", 5.0);
  const std::vector<std::uint32_t> worker_counts = {1, 2, 4};
  // Every width needs a client per shard, and the channel seats at most
  // kMaxClients: reject the rest here, before any child is forked.
  const std::int64_t max_workers = worker_counts.back();
  const std::int64_t clients_arg = args.value_or("clients", std::int64_t{8});
  if (clients_arg < max_workers || clients_arg > kMaxClients) {
    std::cerr << "fig11b_server_pool: --clients=" << clients_arg
              << " out of range [" << max_workers << ", " << kMaxClients
              << "] (need at least one client per worker at " << max_workers
              << " workers)\n";
    return 2;
  }
  const auto clients = static_cast<std::uint32_t>(clients_arg);
  const int cpus = cpu_count();

  std::cout << "Figure 11b — sharded server pool scale-out (native, " << cpus
            << " CPUs, " << clients << " clients, work=" << work_us
            << " us)\n\n";

  FigureReport report("Figure 11b", "pool throughput vs worker count",
                      "workers", "msgs/ms");
  Series& series = report.add_series("BSLS pool, least-loaded");

  std::vector<PoolPoint> points;
  for (const std::uint32_t w : worker_counts) {
    points.push_back(run_pool(w, clients, messages, work_us));
    series.x.push_back(static_cast<int>(w));
    series.y.push_back(points.back().msgs_per_ms);
    std::cout << "[pool] {\"workers\":" << w << ",\"clients\":" << clients
              << ",\"msgs_per_ms\":"
              << TextTable::num(points.back().msgs_per_ms, 2)
              << ",\"cpus\":" << cpus << "}\n";
  }
  std::cout << "\n";

  report.check("every exchange completes and verifies at every width",
               std::all_of(points.begin(), points.end(),
                           [](const PoolPoint& p) {
                             return p.ok && p.msgs_per_ms > 0.0;
                           }));

  // The scale-out claims need real parallelism: workers pinned to distinct
  // CPUs. On narrower hosts the pool still has to be *correct* (checked
  // above), but more workers on one core cannot go faster.
  if (cpus >= 4) {
    const double base = points[0].msgs_per_ms;
    report.check("2 workers beat 1 (shards actually run in parallel)",
                 points[1].msgs_per_ms > base * 1.3,
                 TextTable::num(points[1].msgs_per_ms / base, 2) + "x");
    report.check("4 workers reach >= 2.5x aggregate throughput of 1",
                 points[2].msgs_per_ms >= base * 2.5,
                 TextTable::num(points[2].msgs_per_ms / base, 2) + "x");
  } else {
    std::cout << "scaling shape checks skipped: " << cpus
              << " CPU(s) < 4 (pool cannot outrun its own host)\n\n";
  }

  return report.render(std::cout);
}
