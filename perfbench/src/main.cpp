// ulipc_perfbench: the repository benchmark (see perfbench/README.md).
//
//   ulipc_perfbench --workload pingpong|idle-wake|fanin-stream --seed N
//                   --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints the host facts and a line per figure, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end figures; --trace 1 the
// per-layer ones. Exits 0 only when every check passed; 2 on bad input or
// a host that cannot run the workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "queue/queue_engine.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "ulipc_perfbench: %s\nusage: ulipc_perfbench --workload "
               "pingpong|idle-wake|fanin-stream --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  return 2;
}

bool parse_args(int argc, char** argv, perfbench::RunOptions* opt,
                std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value after " + a;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt->workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt->seconds > 0.0 && opt->seconds <= 120.0)) {
        *err = "--seconds must be in (0, 120]";
        return false;
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        *err = "--trace must be 0 or 1";
        return false;
      }
      opt->trace = v == "1";
    } else if (a == "--trace-out") {
      opt->trace_out = v;
    } else {
      *err = "unknown argument " + a;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *err = "bad number for " + a + ": " + v;
      return false;
    }
  }
  if (!have_workload) *err = "--workload is required";
  return have_workload;
}

void print_json(bool correct, const perfbench::Verdict& v,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string err;
  if (!parse_args(argc, argv, &opt, &err)) return usage(err);
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(opt.workload);
  if (spec == nullptr) return usage("unknown workload '" + opt.workload + "'");

  // The library's defaults, not whatever the caller's environment selects.
  unsetenv("ULIPC_QUEUE_ENGINE");
  unsetenv("ULIPC_SPAN_SHIFT");

  perfbench::CpuPlan plan;
  plan.cpus = perfbench::allowed_cpus();
  const std::uint32_t need = perfbench::cpus_needed(*spec, opt.trace);
  if (plan.cpus.size() < need) {
    std::fprintf(stderr,
                 "ulipc_perfbench: workload '%s'%s needs %u threads pinned "
                 "to distinct CPUs, but this process may use only %zu\n",
                 spec->name, opt.trace ? " (traced, with layer probes)" : "",
                 need, plan.cpus.size());
    return 2;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", spec->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("host: cpus %zu  kernel %s  build %s  default queue engine %s\n",
              plan.cpus.size(), perfbench::kernel_release().c_str(),
              PERFBENCH_BUILD_TYPE,
              ulipc::queue_engine_name(
                  ulipc::QueueEnginePolicy::defaults().server));
  std::fflush(stdout);

  perfbench::Verdict verdict;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;
  try {
    metrics = perfbench::run_workload(*spec, opt, plan, &verdict, &notes);
    if (opt.trace) {
      for (Metric& m : perfbench::run_probes(plan)) metrics.push_back(m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ulipc_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : notes) std::printf("  %s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-42s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = verdict.failed == 0;
  print_json(correct, verdict, metrics);
  return correct ? 0 : 1;
}
