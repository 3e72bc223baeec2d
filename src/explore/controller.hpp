// Deterministic schedule controller for the explore markers.
//
// The controller serializes participating threads onto the explore::point()
// markers: exactly one thread holds the "floor" at a time, and at every
// marker the running thread parks, a scheduling decision picks the next
// thread, and the floor moves. Decisions are recorded as
// (chosen-index, runnable-set-width) pairs, which makes every run
// replayable (kReplay), seed-reproducible (kRandom / kPct), and
// exhaustively enumerable (explore_all's bounded DFS backtracks the
// deepest decision that still has an untried branch).
//
// Real OS waits are different: a thread that is about to block in the
// kernel (sem P, futex wait, flow-control sleep) releases the floor via
// about_to_block()/resumed() instead of parking on it — state kOsBlocked.
// With Options::allow_wait_choice the picker gains one extra pseudo-option
// while any thread is OS-blocked: "schedule nobody", which leaves the
// floor free so wall-clock time passes until a blocked thread resumes.
// That is how a schedule expresses "the producer runs only after the
// consumer's timeout expires" (the C.5 race).
//
// Known constraint: a scheduled thread parked at a marker *inside* a
// RobustSpinlock critical section livelocks any contending scheduled
// thread (the contender spins without ever reaching a marker). Scenarios
// must keep concurrently-scheduled threads on disjoint locks — e.g. one
// producer (tail lock) plus one consumer (head lock). A reply ring's
// producer lock counts: it is held across the kRing enqueue markers (the
// ring's consumer never takes it). The wedge detector turns an accidental
// violation into a reported timeout, not a hang.
#pragma once

#ifndef ULIPC_EXPLORE_ENABLED
#error "controller.hpp requires ULIPC_EXPLORE_ENABLED (link ulipc_explore)"
#endif

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "explore/hooks.hpp"

namespace ulipc::explore {

enum class Policy : std::uint8_t {
  kRandom,  ///< uniform pick among runnable, seeded mt19937_64
  kPct,     ///< PCT-style: fixed random priorities + d-1 demotion steps
  kReplay,  ///< follow Options::replay indices, fall back to 0 past the end
};

struct Options {
  Policy policy = Policy::kRandom;
  std::uint64_t seed = 1;
  /// PCT depth d: number of priority-change points is d-1.
  std::uint32_t pct_depth = 3;
  /// PCT needs an a-priori estimate of the schedule length to place its
  /// change points; runs longer than the estimate just see no more changes.
  std::uint32_t pct_step_estimate = 64;
  /// kReplay: decision indices from a previous run's schedule_string().
  std::vector<std::uint32_t> replay;
  /// Wedge detector: a grant-waiter that sees no scheduling progress for
  /// this long aborts the run (all threads then free-run to completion so
  /// the test can report the trace instead of hanging).
  std::chrono::milliseconds step_timeout{10'000};
  /// Adds the "schedule nobody" pseudo-option while a thread is OS-blocked.
  bool allow_wait_choice = false;
};

struct TraceEntry {
  std::uint32_t tid;
  Point point;
};

inline std::string format_schedule(const std::vector<std::uint32_t>& d) {
  std::string s;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i != 0) s.push_back(',');
    s += std::to_string(d[i]);
  }
  return s;
}

inline std::vector<std::uint32_t> parse_schedule(std::string_view s) {
  std::vector<std::uint32_t> out;
  std::uint32_t cur = 0;
  bool have = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint32_t>(c - '0');
      have = true;
    } else if (have) {
      out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  return out;
}

/// Writes a failing schedule (plus its trace) under
/// $ULIPC_EXPLORE_ARTIFACT_DIR so CI can upload it; no-op when the env var
/// is unset. Returns the path written, or "" if nothing was written.
inline std::string write_schedule_artifact(const std::string& name,
                                           const std::string& schedule,
                                           const std::string& trace) {
  const char* dir = std::getenv("ULIPC_EXPLORE_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return "";
  ::mkdir(dir, 0755);  // EEXIST is fine
  const std::string path = std::string(dir) + "/" + name + ".schedule";
  std::ofstream f(path);
  if (!f) return "";
  f << "# replay with Options::policy=kReplay, Options::replay=parse_schedule"
    << "\nschedule: " << schedule << "\ntrace: " << trace << "\n";
  return path;
}

class Controller {
 public:
  static constexpr std::uint32_t kNoThread = 0xffffffffu;

  explicit Controller(Options opts = {})
      : opts_(std::move(opts)), rng_(opts_.seed) {
    if (opts_.policy == Policy::kPct) {
      // Pre-draw the steps at which the top priority gets demoted.
      for (std::uint32_t i = 0; i + 1 < opts_.pct_depth; ++i) {
        pct_changes_.push_back(
            1 + rng_() % std::max<std::uint32_t>(1, opts_.pct_step_estimate));
      }
    }
  }

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  ~Controller() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.th.joinable()) t.th.join();
    }
  }

  /// Registers and launches a participating thread. The thread installs
  /// its hook and parks until run() hands out the first grant.
  void spawn(std::string name, std::function<void()> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint32_t tid = static_cast<std::uint32_t>(threads_.size());
    threads_.emplace_back();
    ThreadRec& rec = threads_.back();
    rec.c = this;
    rec.tid = tid;
    rec.name = std::move(name);
    // Positive band; PCT demotions hand out negative values, so a demoted
    // thread always ranks below every never-demoted one.
    priorities_.push_back(static_cast<std::int64_t>(rng_() % (1u << 30)) + 1);
    rec.th = std::thread([this, tid, fn = std::move(fn)] {
      {
        std::unique_lock<std::mutex> lk2(mu_);
        set_thread_hook(&threads_[tid]);
        threads_[tid].state = State::kWaiting;
        ++ready_;
        cv_.notify_all();
        wait_for_grant(lk2, tid);
      }
      fn();
      set_thread_hook(nullptr);
      finish(tid);
    });
  }

  /// Hands out the first grant and joins every spawned thread. Returns
  /// false iff the wedge detector fired (see timed_out()).
  bool run() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return ready_ == threads_.size(); });
      started_ = true;
      pick_next_locked();
    }
    cv_.notify_all();
    for (auto& t : threads_) t.th.join();
    return !timed_out_;
  }

  bool timed_out() const { return timed_out_; }

  const std::vector<TraceEntry>& trace() const { return trace_; }
  const std::vector<std::uint32_t>& decisions() const { return decisions_; }
  const std::vector<std::uint32_t>& widths() const { return widths_; }
  std::string schedule_string() const { return format_schedule(decisions_); }

  /// "name:point name:point ..." — the determinism assertions compare this.
  std::string trace_string() const {
    std::string s;
    for (const TraceEntry& e : trace_) {
      if (!s.empty()) s.push_back(' ');
      s += threads_[e.tid].name;
      s.push_back(':');
      s += point_name(e.point);
    }
    return s;
  }

 private:
  enum class State : std::uint8_t {
    kUnstarted,
    kWaiting,    // parked at a marker (or the initial gate), runnable
    kRunning,    // holds the floor
    kOsBlocked,  // inside a real OS wait; holds no floor
    kDone,
  };

  struct ThreadRec final : ThreadHook {
    Controller* c = nullptr;
    std::uint32_t tid = 0;
    std::string name;
    State state = State::kUnstarted;
    std::thread th;
    void on_point(Point p) override { c->handle_point(tid, p); }
    void on_block(Point p) override { c->handle_block(tid, p); }
    void on_resume() override { c->handle_resume(tid); }
  };

  void handle_point(std::uint32_t tid, Point p) {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) return;
    trace_.push_back({tid, p});
    threads_[tid].state = State::kWaiting;
    granted_ = kNoThread;
    pick_next_locked();
    cv_.notify_all();
    wait_for_grant(lk, tid);
  }

  void handle_block(std::uint32_t tid, Point p) {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) return;
    trace_.push_back({tid, p});
    threads_[tid].state = State::kOsBlocked;
    granted_ = kNoThread;
    pick_next_locked();
    cv_.notify_all();
    // No wait: the thread proceeds straight into its OS wait.
  }

  void handle_resume(std::uint32_t tid) {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) return;
    if (granted_ == kNoThread) {
      // The floor was left free (wait-choice, or nobody else runnable):
      // the thread coming back from the kernel takes it directly. Not a
      // decision — there is nothing to choose.
      granted_ = tid;
      threads_[tid].state = State::kRunning;
      ++steps_;
      cv_.notify_all();
      return;
    }
    threads_[tid].state = State::kWaiting;
    wait_for_grant(lk, tid);
  }

  void finish(std::uint32_t tid) {
    std::unique_lock<std::mutex> lk(mu_);
    threads_[tid].state = State::kDone;
    if (granted_ == tid) granted_ = kNoThread;
    if (!aborted_) pick_next_locked();
    cv_.notify_all();
  }

  /// Precondition: mu_ held, granted_ == kNoThread (or a done thread).
  void pick_next_locked() {
    std::vector<std::uint32_t> runnable;
    bool any_blocked = false;
    for (const ThreadRec& t : threads_) {
      if (t.state == State::kWaiting) runnable.push_back(t.tid);
      if (t.state == State::kOsBlocked) any_blocked = true;
    }
    if (runnable.empty()) return;  // floor stays free; a resume will take it
    const bool wait_slot = opts_.allow_wait_choice && any_blocked;
    const std::uint32_t width =
        static_cast<std::uint32_t>(runnable.size()) + (wait_slot ? 1u : 0u);

    std::uint32_t idx = 0;
    switch (opts_.policy) {
      case Policy::kRandom:
        idx = static_cast<std::uint32_t>(rng_() % width);
        break;
      case Policy::kPct: {
        for (std::uint32_t step : pct_changes_) {
          if (step == steps_) {
            // Demote the current leader to a fresh all-time low.
            std::uint32_t leader = runnable[0];
            for (std::uint32_t t : runnable) {
              if (priorities_[t] > priorities_[leader]) leader = t;
            }
            priorities_[leader] = pct_low_water_--;
          }
        }
        for (std::uint32_t i = 0; i < runnable.size(); ++i) {
          if (priorities_[runnable[i]] > priorities_[runnable[idx]]) idx = i;
        }
        break;
      }
      case Policy::kReplay:
        if (replay_cursor_ < opts_.replay.size()) {
          idx = std::min(opts_.replay[replay_cursor_], width - 1);
        }
        ++replay_cursor_;
        break;
    }
    decisions_.push_back(idx);
    widths_.push_back(width);
    ++steps_;
    if (wait_slot && idx == runnable.size()) {
      granted_ = kNoThread;  // schedule nobody: let wall-clock time pass
    } else {
      granted_ = runnable[idx];
    }
  }

  void wait_for_grant(std::unique_lock<std::mutex>& lk, std::uint32_t tid) {
    while (!aborted_ && granted_ != tid) {
      const std::uint64_t s0 = steps_;
      const bool progressed = cv_.wait_for(lk, opts_.step_timeout, [&] {
        return aborted_ || granted_ == tid || steps_ != s0;
      });
      if (!progressed) {
        // A full step_timeout with zero scheduling activity: wedged
        // (scenario deadlock or a marker inside a contended lock). Abort
        // and free-run so run() can return and report the trace.
        timed_out_ = true;
        aborted_ = true;
        cv_.notify_all();
      }
    }
    threads_[tid].state = State::kRunning;
  }

  Options opts_;
  std::mt19937_64 rng_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ThreadRec> threads_;  // deque: hooks need stable addresses
  std::vector<std::int64_t> priorities_;
  std::vector<std::uint32_t> pct_changes_;
  std::int64_t pct_low_water_ = 0;  // demotions: 0, -1, -2, ...
  std::size_t ready_ = 0;
  bool started_ = false;
  bool aborted_ = false;
  bool timed_out_ = false;
  std::uint32_t granted_ = kNoThread;
  std::uint64_t steps_ = 0;
  std::uint64_t replay_cursor_ = 0;
  std::vector<std::uint32_t> decisions_;
  std::vector<std::uint32_t> widths_;
  std::vector<TraceEntry> trace_;
};

/// Bounded exhaustive DFS over schedules.
struct DfsStats {
  std::uint64_t schedules = 0;
  bool exhausted = false;   // every schedule within the prefix tree was run
  bool budget_hit = false;  // stopped because the budget ran out
  bool failed = false;      // a scenario returned false (or wedged)
  std::string failing_schedule;
  std::string failing_trace;
};

/// Runs `scenario` under kReplay with systematically advancing decision
/// prefixes until the tree is exhausted, the budget is spent, or a run
/// fails. `scenario(Controller&)` must spawn its threads, call run(), and
/// return true iff all invariants held. On failure the schedule + trace
/// are saved via write_schedule_artifact(name, ...).
template <typename Scenario>
DfsStats explore_all(const std::string& name, const Options& base,
                     std::uint64_t budget, Scenario&& scenario) {
  DfsStats stats;
  std::vector<std::uint32_t> prefix;
  for (;;) {
    if (stats.schedules >= budget) {
      stats.budget_hit = true;
      return stats;
    }
    Options o = base;
    o.policy = Policy::kReplay;
    o.replay = prefix;
    Controller c(o);
    const bool ok = scenario(c) && !c.timed_out();
    ++stats.schedules;
    if (!ok) {
      stats.failed = true;
      stats.failing_schedule = c.schedule_string();
      stats.failing_trace = c.trace_string();
      write_schedule_artifact(name, stats.failing_schedule,
                              stats.failing_trace);
      return stats;
    }
    // Backtrack: bump the deepest decision that still has an untried
    // branch; drop everything after it.
    const std::vector<std::uint32_t>& d = c.decisions();
    const std::vector<std::uint32_t>& w = c.widths();
    std::size_t i = d.size();
    while (i > 0 && d[i - 1] + 1 >= w[i - 1]) --i;
    if (i == 0) {
      stats.exhausted = true;
      return stats;
    }
    prefix.assign(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(i));
    ++prefix.back();
  }
}

/// DFS budget for in-tree tests: small by default so tier-1 stays fast;
/// the CI explore job raises it via ULIPC_EXPLORE_BUDGET.
inline std::uint64_t default_budget(std::uint64_t fallback = 256) {
  const char* s = std::getenv("ULIPC_EXPLORE_BUDGET");
  if (s == nullptr || *s == '\0') return fallback;
  const long long v = std::atoll(s);
  return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

}  // namespace ulipc::explore
