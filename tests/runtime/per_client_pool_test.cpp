// Thread-per-client serving — the paper's alternative architecture:
//
//   "an alternative architecture might be to have a server thread per
//    client, but that would require two queues per client to implement the
//    full-duplex virtual connection." (paper §2.1)
//
// It is the server pool with one shard per client, each client forced onto
// its own shard and stealing off: every worker thread then owns exactly
// one client's request queue, and that client's reply queue is the second
// queue of the pair.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "protocols/bsls.hpp"
#include "protocols/bsw.hpp"
#include "runtime/server_pool.hpp"
#include "shm/process.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

class PerClientPoolTest : public ::testing::Test {
 protected:
  void build(std::uint32_t clients) {
    channel_.reset();
    ShmChannel::Config cfg;
    cfg.max_clients = clients;
    cfg.queue_capacity = 32;
    cfg.shards = clients;
    region_ = ShmRegion::create_anonymous(ShmChannel::required_bytes(cfg));
    channel_.emplace(ShmChannel::create(region_, cfg));
  }

  ShmRegion region_;
  std::optional<ShmChannel> channel_;
};

/// Forks `clients` echo clients, client i pinned to shard i, and runs one
/// worker thread per shard in-process. Each worker must serve exactly its
/// own client's traffic (nothing stolen) and the run must report a
/// throughput window.
template <typename Proto>
void run_per_client_echo(ShmChannel& channel, std::uint32_t clients,
                         std::uint64_t messages, Proto proto) {
  ServerPoolOptions opts;
  opts.expected_clients = clients;
  opts.steal_batch = 0;
  std::vector<ChildProcess> client_procs;
  for (std::uint32_t i = 0; i < clients; ++i) {
    client_procs.push_back(ChildProcess::spawn([&, i] {
      NativePlatform plat;
      Proto p2 = proto;
      pool_client_connect(plat, p2, channel, i, opts.policy,
                          /*forced_shard=*/i);
      const std::uint64_t ok =
          pool_client_echo_loop(plat, p2, channel, i, messages);
      pool_client_disconnect(plat, p2, channel, i);
      return ok == messages ? 0 : 1;
    }));
  }
  const ServerPoolResult r = run_server_pool(channel, proto, opts);
  for (auto& c : client_procs) EXPECT_EQ(c.join(), 0);

  EXPECT_EQ(r.echo_messages, clients * messages);
  ASSERT_EQ(r.workers.size(), clients);
  for (std::uint32_t s = 0; s < clients; ++s) {
    EXPECT_EQ(r.workers[s].server.echo_messages, messages) << "worker " << s;
  }
  EXPECT_EQ(r.stolen_messages, 0u);
  EXPECT_EQ(r.crashed_clients, 0u);
  EXPECT_GT(r.throughput_msgs_per_ms(), 0.0);
}

TEST_F(PerClientPoolTest, SingleClientEcho) {
  build(1);
  run_per_client_echo(*channel_, 1, 2'000, Bsls<NativePlatform>(10));
}

TEST_F(PerClientPoolTest, FourClientsEcho) {
  build(4);
  run_per_client_echo(*channel_, 4, 1'000, Bsls<NativePlatform>(10));
}

TEST_F(PerClientPoolTest, WorksWithBswToo) {
  build(1);
  run_per_client_echo(*channel_, 1, 1'000, Bsw<NativePlatform>());
  build(4);
  run_per_client_echo(*channel_, 4, 1'000, Bsw<NativePlatform>());
}

TEST_F(PerClientPoolTest, ReportsAggregateThroughput) {
  build(2);
  run_per_client_echo(*channel_, 2, 1'000, Bsls<NativePlatform>(10));
}

}  // namespace
}  // namespace ulipc
