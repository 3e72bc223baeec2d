// ulipc-perf: scenario-driven load generator over the pool stack.
//
// Runs the named workload scenarios (src/runtime/scenario.hpp) — steady
// request-response, windowed streaming, fan-in, bursty on/off arrivals,
// pareto-weighted compute, connect/disconnect churn — plus the churn+chaos
// scenario that SIGKILLs a worker and a client mid-load and asserts the
// recovery SLOs. One machine-readable `[scenario] {json}` line is printed
// per run.
//
// This binary links ulipc_runtime_explore, so chaos victims SIGKILL
// themselves at an armed crash point (deterministic per process) instead of
// relying on parent timing.
//
// Usage:
//   ulipc-perf [--list] [--scenario=NAME] [--quick] [--seed=N]
//
// Exit status: 0 iff every executed scenario passed its SLOs.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/affinity.hpp"
#include "runtime/scenario.hpp"
#include "runtime/waitset.hpp"

using namespace ulipc;

namespace {

void usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [options]\n"
      << "  --list            print the scenario names and exit\n"
      << "  --scenario=NAME   run only this scenario (default: all)\n"
      << "  --quick           shrink message counts (CI smoke runs)\n"
      << "  --seed=N          jitter/pareto RNG seed (default 42)\n"
      << "  --payload-dist=pareto:ALPHA,MIN,MAX\n"
      << "                    attach a pareto(ALPHA)-sized payload of\n"
      << "                    MIN..MAX bytes to every data request (loaned\n"
      << "                    from the channel's zero-copy payload plane);\n"
      << "                    bytes/s lands in the [scenario] json\n"
      << "environment:\n"
      << "  ULIPC_SCENARIO_SHM=/name    name the channel's shm region so\n"
      << "                              ulipc-stat can attach to the run\n"
      << "  ULIPC_SCENARIO_LINGER_MS=N  keep the region mapped N ms after\n"
      << "                              each scenario (post-hoc --spans)\n"
      << "  ULIPC_SPAN_SHIFT=N          trace 1 in 2^N sends (default 5)\n";
}

/// Parses "pareto:alpha,min,max" into the spec's payload fields.
bool parse_payload_dist(const std::string& v, double* alpha,
                        std::uint32_t* min_bytes, std::uint32_t* max_bytes) {
  if (v.rfind("pareto:", 0) != 0) return false;
  char* end = nullptr;
  const char* s = v.c_str() + std::strlen("pareto:");
  *alpha = std::strtod(s, &end);
  if (end == s || *end != ',' || *alpha <= 0.0) return false;
  s = end + 1;
  *min_bytes = static_cast<std::uint32_t>(std::strtoul(s, &end, 10));
  if (end == s || *end != ',') return false;
  s = end + 1;
  *max_bytes = static_cast<std::uint32_t>(std::strtoul(s, &end, 10));
  return end != s && *end == '\0' && *min_bytes > 0 &&
         *min_bytes <= *max_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool list = false;
  std::uint64_t seed = 42;
  std::string only;
  double payload_alpha = 0.0;
  std::uint32_t payload_min = 0;
  std::uint32_t payload_max = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      only = arg.substr(std::strlen("--scenario="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + std::strlen("--seed="), nullptr, 10);
    } else if (arg.rfind("--payload-dist=", 0) == 0) {
      if (!parse_payload_dist(arg.substr(std::strlen("--payload-dist=")),
                              &payload_alpha, &payload_min, &payload_max)) {
        std::cerr << "bad --payload-dist (want pareto:ALPHA,MIN,MAX with "
                     "0 < MIN <= MAX): "
                  << arg << "\n";
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  std::vector<ScenarioSpec> specs = builtin_scenarios(quick, seed);
  if (payload_max > 0) {
    for (ScenarioSpec& s : specs) {
      s.payload_alpha = payload_alpha;
      s.payload_min = payload_min;
      s.payload_max = payload_max;
    }
  }
  // The fan-in waitset scenario rides alongside the pool scenarios: one
  // worker, one WaitSet, N single-client channels (runtime/waitset.hpp).
  FaninScenarioSpec fanin;
  fanin.messages = quick ? 25 : 150;
  fanin.seed = seed;

  if (list) {
    for (const ScenarioSpec& s : specs) {
      std::cout << s.name << "  (" << workload_name(s.workload) << ", "
                << s.workers << " workers, " << s.clients << " clients"
                << (s.chaos.enabled() ? ", chaos" : "") << ")\n";
    }
    std::cout << fanin.name << "  (fan-in over a waitset, 1 worker, "
              << fanin.channels << " channels)\n";
    return 0;
  }

  bool matched = false;
  bool all_pass = true;
  std::cout << "ulipc-perf — scenario engine (" << cpu_count() << " CPUs, "
            << (quick ? "quick" : "full") << ", seed " << seed << ")\n\n";
  for (const ScenarioSpec& s : specs) {
    if (!only.empty() && s.name != only) continue;
    matched = true;
    std::cout << "== " << s.name << " ==\n" << std::flush;
    const ScenarioResult r = run_scenario(s);
    std::cout << "   verified " << r.verified << "/" << r.attempted
              << " requests";
    if (r.retries > 0) std::cout << ", " << r.retries << " retries";
    if (r.sheds > 0) std::cout << ", " << r.sheds << " sheds";
    if (r.stale_dropped > 0) {
      std::cout << ", " << r.stale_dropped << " stale replies dropped";
    }
    if (r.workers_killed > 0 || r.clients_killed > 0) {
      std::cout << "; killed " << r.workers_killed << " worker(s) + "
                << r.clients_killed << " client(s), orphan drain "
                << static_cast<double>(r.orphan_drain_ns) / 1e6 << " ms";
    }
    if (r.payload_bytes > 0) {
      std::cout << "; " << r.payload_bytes << " payload bytes ("
                << r.bytes_per_s / 1e6 << " MB/s)";
    }
    std::cout << "\n   SLO " << (r.slo_pass() ? "PASS" : "FAIL")
              << " (no_lost_replies=" << r.slo_no_lost_replies
              << " orphan_drain=" << r.slo_orphan_drain
              << " nodes_conserved=" << r.slo_nodes_conserved
              << " payloads_conserved=" << r.slo_payloads_conserved
              << " completed=" << r.completed << ")\n";
    std::cout << "[scenario] " << r.json() << "\n\n" << std::flush;
    all_pass &= r.slo_pass();
  }

  if (only.empty() || only == fanin.name) {
    matched = true;
    std::cout << "== " << fanin.name << " ==\n" << std::flush;
    const ScenarioResult r = run_fanin_scenario(fanin);
    std::cout << "   verified " << r.verified << "/" << r.attempted
              << " requests across " << fanin.channels
              << " channels, 1 waitset worker ("
              << waitset_backend_name(
                     WaitSet::resolve_backend(WaitSetBackend::kAuto))
              << " backend)\n";
    std::cout << "   SLO " << (r.slo_pass() ? "PASS" : "FAIL")
              << " (no_lost_replies=" << r.slo_no_lost_replies
              << " nodes_conserved=" << r.slo_nodes_conserved
              << " completed=" << r.completed << ")\n";
    std::cout << "[scenario] " << r.json() << "\n\n" << std::flush;
    all_pass &= r.slo_pass();
  }

  if (!matched) {
    std::cerr << "no scenario named '" << only << "' (try --list)\n";
    return 2;
  }
  return all_pass ? 0 : 1;
}
