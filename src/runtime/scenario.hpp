// Scenario engine: named workload mixes over the pool stack, with an
// optional chaos mode that SIGKILLs workers and clients mid-load and
// asserts recovery SLOs.
//
// The paper evaluates its protocols under one workload — steady synchronous
// echo round trips. The FreeBSD IPC analysis (PAPERS.md) makes the case
// that IPC performance claims only hold up under workload sweeps; and our
// own recovery machinery (PRs 1/4/5) has so far been proven only in pinned
// schedules, never under live traffic. run_scenario() closes both gaps:
// each ScenarioSpec forks a real worker pool and real client processes,
// drives one of the named workload shapes through the resilience layer
// (runtime/resilience.hpp), optionally kills processes mid-run, and then
// audits the wreckage against three SLOs:
//
//   * no lost replies — every SURVIVING client verified every request it
//     attempted (killed clients are excluded: their in-flight requests are
//     served and their replies legitimately die with them);
//   * bounded orphan drain — after a worker SIGKILL, survivors retire the
//     dead shard and drain its backlog within chaos.orphan_drain_bound_ns;
//   * node conservation — after the run (and the final reclaim + sweep),
//     the channel's node pool holds exactly as many free nodes as before
//     the first message: nothing leaked, nothing double-freed.
//
// Chaos has two trigger mechanisms, selected at compile time:
//   * explore builds (ULIPC_EXPLORE_ENABLED, e.g. tools/ulipc-perf):
//     victims arm a PR-5 crash point (explore::arm_crash) and SIGKILL
//     themselves at the nth protocol enqueue — deterministic per process;
//   * default builds (tests/runtime/scenario_test): the parent SIGKILLs
//     the victims once aggregate verified progress crosses
//     chaos.kill_after_replies.
//
// Every run yields a ScenarioResult whose json() line is what ulipc-perf
// prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/resilience.hpp"

namespace ulipc {

/// The named workload shapes.
enum class Workload : std::uint8_t {
  kRequestResponse = 0,  // synchronous echo round trips
  kStreaming,            // windowed batched sends (one-way-ish pipelining)
  kFanIn,                // many clients converging on one worker shard
  kBursty,               // on/off arrivals: bursts separated by idle gaps
  kParetoCompute,        // kCompute with pareto-distributed server work
  kChurn,                // high-rate connect/disconnect cycles
};

constexpr const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kRequestResponse: return "request-response";
    case Workload::kStreaming: return "streaming";
    case Workload::kFanIn: return "fan-in";
    case Workload::kBursty: return "bursty";
    case Workload::kParetoCompute: return "pareto-compute";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

/// Chaos-mode knobs. All zero (the default) = no chaos.
struct ChaosConfig {
  std::uint32_t kill_workers = 0;  // SIGKILL this many workers mid-load
                                   // (always leaves at least one alive)
  std::uint32_t kill_clients = 0;  // SIGKILL this many clients mid-load
  std::uint64_t kill_after_replies = 50;  // progress before the kill: the
      // parent-kill path waits for this many aggregate verified replies;
      // the explore path arms the nth protocol-enqueue crash point with it
  std::int64_t orphan_drain_bound_ns = 5'000'000'000;  // drain SLO bound

  [[nodiscard]] bool enabled() const noexcept {
    return kill_workers > 0 || kill_clients > 0;
  }
};

/// One named scenario: topology, workload shape, and resilience/chaos
/// configuration. Everything is bounded — a scenario cannot hang CI.
struct ScenarioSpec {
  std::string name;
  Workload workload = Workload::kRequestResponse;
  std::uint32_t workers = 2;
  std::uint32_t clients = 4;
  std::uint64_t messages = 500;   // data requests per client per cycle
  std::uint32_t window = 32;      // streaming batch / bursty burst size
  std::uint32_t cycles = 1;       // connect..traffic..disconnect rounds
  double work_us = 0.0;           // fixed kCompute weight (0 = kEcho)
  double pareto_alpha = 1.5;      // pareto-compute shape
  double pareto_xm_us = 1.0;      // pareto-compute scale (minimum work)
  double pareto_cap_us = 200.0;   // pareto-compute tail cap
  std::int64_t burst_off_ns = 2'000'000;  // bursty: idle gap between bursts
  std::uint32_t queue_capacity = 256;
  std::uint64_t seed = 42;
  // Payload plane: when payload_max > 0, every data request loans a
  // pareto(alpha)-distributed payload of [payload_min, payload_max] bytes,
  // written in place and batoned back by the echo (ulipc-perf flag:
  // --payload-dist pareto:alpha,min,max). Exhausted plane = payload-less
  // fallback, never a stall.
  double payload_alpha = 1.2;
  std::uint32_t payload_min = 0;
  std::uint32_t payload_max = 0;
  ResilienceConfig resilience;
  ChaosConfig chaos;

  [[nodiscard]] bool payloads() const noexcept { return payload_max > 0; }
};

/// What one run produced, including the SLO verdicts.
struct ScenarioResult {
  std::string name;
  Workload workload = Workload::kRequestResponse;
  bool completed = false;          // orchestration itself finished cleanly
                                   // (children joined with expected states)
  std::uint64_t attempted = 0;     // logical requests issued by survivors
  std::uint64_t verified = 0;      // round trips verified by survivors
  std::uint64_t retries = 0;       // resilience re-sends (survivors)
  std::uint64_t sheds = 0;         // admission refusals (survivors)
  std::uint64_t stale_dropped = 0; // superseded replies discarded
  std::uint32_t workers_killed = 0;
  std::uint32_t clients_killed = 0;
  std::int64_t orphan_drain_ns = 0;  // worker death -> dead shard drained
  std::int64_t elapsed_ns = 0;
  double msgs_per_ms = 0.0;
  std::uint64_t payload_bytes = 0;  // payload bytes verified end-to-end
  double bytes_per_s = 0.0;

  bool slo_no_lost_replies = false;
  bool slo_orphan_drain = false;
  bool slo_nodes_conserved = false;
  bool slo_payloads_conserved = false;

  [[nodiscard]] bool slo_pass() const noexcept {
    return completed && slo_no_lost_replies && slo_orphan_drain &&
           slo_nodes_conserved && slo_payloads_conserved;
  }

  /// One machine-readable line (what `[scenario]` output carries).
  [[nodiscard]] std::string json() const;
};

/// Forks the pool and the clients, drives the workload, applies chaos,
/// audits the SLOs. Synchronous; bounded by the spec's deadlines.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Fan-in over the readiness plane (runtime/waitset.hpp): ONE worker
/// process parks a single WaitSet across `channels` independent
/// single-client channels — a topology run_scenario cannot express, since
/// its client count is bounded by kMaxClients on one channel. Each client
/// process drives a synchronous echo loop on its own channel; the SLOs are
/// the scenario engine's no-lost-replies and node-conservation checks,
/// audited per channel. The result's json() line carries the scenario name
/// "fanin-waitset" and prints like any other.
struct FaninScenarioSpec {
  std::string name = "fanin-waitset";
  std::uint32_t channels = 64;     // one client process per channel
  std::uint64_t messages = 100;    // echo round trips per client
  std::uint32_t queue_capacity = 64;
  std::int64_t liveness_timeout_ns = 20'000'000'000;  // server idle bound
  std::uint64_t seed = 42;
};

ScenarioResult run_fanin_scenario(const FaninScenarioSpec& spec);

/// The named scenario set ulipc-perf exposes (ISSUE acceptance: >= 5 named
/// scenarios plus the churn+chaos one). `quick` shrinks message counts for
/// smoke runs; `seed` perturbs jitter and pareto draws.
std::vector<ScenarioSpec> builtin_scenarios(bool quick, std::uint64_t seed);

}  // namespace ulipc
