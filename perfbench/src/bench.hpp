// Shared declarations of the repository benchmark (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run checked: every request it issued, and every miss.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The CPUs a run pins its threads to: the server (or pool worker) on
/// `cpus[0]`, client i on `cpus[1 + i]`.
struct CpuPlan {
  std::vector<int> cpus;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // traced run: where the spans are written
};

struct WorkloadSpec {
  const char* name;
  std::uint32_t clients;  // client threads in the benchmark process
  bool pool;              // run_server_pool with one worker, else the
                          // paper's single-queue run_echo_server
  bool think;             // seeded busy think time before each request
  std::uint32_t window;   // requests per send_batch; 1 = scalar send
  bool payload;           // every request loans a seeded-size payload
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// Threads (hence pinned CPUs) a run of `spec` needs; the traced run's
/// layer probes need three.
std::uint32_t cpus_needed(const WorkloadSpec& spec, bool trace);

/// Runs the workload: end-to-end metrics, or (trace) per-layer metrics.
std::vector<Metric> run_workload(const WorkloadSpec& spec,
                                 const RunOptions& opt, const CpuPlan& plan,
                                 Verdict* verdict,
                                 std::vector<std::string>* notes);

/// Times the shm and queue primitives in isolation on pinned threads.
std::vector<Metric> run_probes(const CpuPlan& plan);

}  // namespace perfbench
