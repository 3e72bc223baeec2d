// Host facts and outside-in process accounting: which CPUs this process may
// use, and the CPU time and context switches of another process read from
// /proc (the system under test is a forked child; the benchmark never asks
// it for its own numbers).
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace perfbench {

/// CPUs in this process's affinity mask, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

inline std::string kernel_release() {
  utsname u{};
  if (uname(&u) != 0) return "?";
  return std::string(u.sysname) + " " + u.release;
}

/// user + system CPU time of process `pid` (all its threads), in ns.
/// /proc/<pid>/stat counts in clock ticks; -1 when the process is gone.
inline std::int64_t process_cpu_ns(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::stoull(field);
    if (f == 15) stime = std::stoull(field);
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<std::int64_t>((utime + stime) * 1'000'000'000ULL /
                                   static_cast<std::uint64_t>(hz));
}

/// CPU time the hypervisor gave to others while this VM's vCPUs wanted to
/// run (the "steal" column of /proc/stat, all CPUs), in ns.
inline std::int64_t host_steal_ns() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (auto& f : field) in >> f;
  const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<std::int64_t>(field[7] * 1'000'000'000ULL /
                                   static_cast<std::uint64_t>(hz));
}

struct CtxCount {
  std::int64_t voluntary = 0;
  std::int64_t involuntary = 0;
};

/// Context switches of every thread of process `pid`, summed over
/// /proc/<pid>/task/*/status.
inline CtxCount process_ctx_switches(pid_t pid) {
  CtxCount c;
  std::error_code ec;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& t : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(t.path() / "status");
    std::string key;
    std::int64_t v = 0;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      if (!(ls >> key >> v)) continue;
      if (key == "voluntary_ctxt_switches:") c.voluntary += v;
      if (key == "nonvoluntary_ctxt_switches:") c.involuntary += v;
    }
  }
  return c;
}

/// The calling thread's voluntary context switches.
inline std::int64_t thread_voluntary_switches() {
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return ru.ru_nvcsw;
}

/// ns per TSC tick, measured once over 50 ms. The library's own 2 ms
/// calibration can read 0.5% off on its first, cold call, which would move
/// every figure here by as much from run to run. Also warms the library's
/// calibration, so forked children inherit it instead of measuring it.
inline double ns_per_tick() noexcept {
  static const double cached = [] {
    (void)ulipc::TscClock::cached();
    const std::uint64_t t0 = ulipc::TscClock::now();
    const std::int64_t n0 = ulipc::now_ns();
    std::int64_t n1 = n0;
    while (n1 - n0 < 50'000'000) n1 = ulipc::now_ns();
    const std::uint64_t t1 = ulipc::TscClock::now();
    return static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
  }();
  return cached;
}

/// Busy-waits until TSC tick `until` (the idle-wake client's think time).
inline void spin_until_tick(std::uint64_t until) noexcept {
  while (ulipc::TscClock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace perfbench
