// ulipc-stat against a live pool channel whose shards are receive rings:
// the shard table and its JSON report each shard's depth from the ring
// (NativeEndpoint::depth), in a separate process that maps the region
// read-only. The tool's path is compiled in (ULIPC_STAT_BIN).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "runtime/shm_channel.hpp"
#include "shm/shm_region.hpp"

namespace ulipc {
namespace {

/// Runs ulipc-stat with `args` and returns its stdout.
std::string run_stat(const std::string& args) {
  const std::string cmd = std::string(ULIPC_STAT_BIN) + " " + args;
  FILE* f = ::popen(cmd.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  EXPECT_EQ(::pclose(f), 0) << cmd;
  return out;
}

TEST(UlipcStat, ReportsShardDepthOfReceiveRings) {
  ShmChannel::Config cfg;
  cfg.max_clients = 4;
  cfg.queue_capacity = 16;
  cfg.shards = 2;
  cfg.engines.server = cfg.engines.shard = QueueEngine::kRing;
  const std::string name = "/ulipc_stat_test_" + std::to_string(::getpid());
  ShmRegion region =
      ShmRegion::create_named(name, ShmChannel::required_bytes(cfg));
  ShmChannel channel = ShmChannel::create(region, cfg);
  ASSERT_TRUE(channel.shard_endpoint(0).ring);

  NativePlatform p;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(p.enqueue(channel.shard_endpoint(0), Message(Op::kEcho, 0, i)));
  }
  ASSERT_TRUE(p.enqueue(channel.shard_endpoint(1), Message(Op::kEcho, 1, 9)));
  ASSERT_EQ(channel.shard_endpoint(0).depth(), 3u);

  const std::string json = run_stat("--json " + name);
  EXPECT_NE(json.find("{\"shard\":0,\"state\":\"active\",\"worker_pid\":0,"
                      "\"depth\":3,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"shard\":1,\"state\":\"active\",\"worker_pid\":0,"
                      "\"depth\":1,"),
            std::string::npos)
      << json;

  // The table: one row per shard, depth in the fourth column.
  const std::string table = run_stat(name);
  EXPECT_NE(table.find("shards: 2"), std::string::npos) << table;
  std::uint32_t depths[2] = {99, 99};
  for (std::uint32_t s = 0; s < 2; ++s) {
    const std::string row = std::to_string(s) + " ";
    for (std::size_t at = table.find('\n', table.find("shards:"));
         at != std::string::npos;
         at = table.find('\n', at + 1)) {
      if (table.compare(at + 1, row.size(), row) != 0) continue;
      char state[16];
      unsigned pid = 0;
      unsigned depth = 0;
      if (std::sscanf(table.c_str() + at + 1, "%*u %15s %u %u", state, &pid,
                      &depth) == 3 &&
          std::string(state) == "active") {
        depths[s] = depth;
      }
    }
  }
  EXPECT_EQ(depths[0], 3u) << table;
  EXPECT_EQ(depths[1], 1u) << table;
}

}  // namespace
}  // namespace ulipc
