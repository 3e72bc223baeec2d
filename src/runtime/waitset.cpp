#include "runtime/waitset.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "explore/hooks.hpp"
#include "obs/metrics.hpp"
#include "protocols/detail.hpp"
#include "runtime/shm_channel.hpp"
#include "shm/futex.hpp"
#include "shm/futex_waitv.hpp"

namespace ulipc {

namespace {

/// How long the bridge (and the >FUTEX_WAITV_MAX chunk rotation) blocks on
/// one word before rescanning the rest. Bounds the extra wake latency a
/// ring on a not-currently-watched word can suffer.
constexpr std::int64_t kScanSliceNs = 2'000'000;  // 2 ms

bool force_bridge_env() noexcept {
  const char* env = std::getenv("ULIPC_FORCE_EVENTFD_BRIDGE");
  if (env == nullptr || env[0] == '\0') return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "OFF") != 0 &&
         std::strcmp(env, "off") != 0;
}

}  // namespace

// ---- eventfd bridge ----
//
// A helper thread in the WAITING process. Each round the waiter publishes
// its blocking snapshot ({word, expected} pairs) and blocks in poll(2) on
// the eventfd; the bridge scans the snapshot and, between scans, parks in a
// short plain FUTEX_WAIT on one word at a time (rotating), so it wakes
// promptly when the watched word rings and within one slice otherwise. Any
// changed word => write the eventfd and wait for the next round.
//
// Lost-wake safety does not rest on the bridge's latency: the waiter
// rearmed and rechecked every queue before publishing, so a ring the
// bridge has not noticed yet is always re-observed by the scan (the word
// value stays != expected until the waiter re-arms). Stale eventfd counts
// from a previous round surface as one spurious ungate — counted, benign.
struct WaitSet::Bridge {
  int efd = -1;
  std::thread thr;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::uint64_t> round{0};
  std::atomic<bool> shutdown{false};
  std::vector<std::atomic<std::uint32_t>*> words;  // published snapshot
  std::vector<std::uint32_t> expected;

  void main() {
    std::uint64_t seen = 0;
    std::vector<std::atomic<std::uint32_t>*> w;
    std::vector<std::uint32_t> exp;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] {
          return shutdown.load(std::memory_order_relaxed) ||
                 round.load(std::memory_order_relaxed) != seen;
        });
        if (shutdown.load(std::memory_order_relaxed)) return;
        w = words;
        exp = expected;
        seen = round.load(std::memory_order_relaxed);
      }
      std::size_t rot = 0;
      while (!shutdown.load(std::memory_order_relaxed) &&
             round.load(std::memory_order_relaxed) == seen) {
        bool changed = false;
        for (std::size_t i = 0; i < w.size(); ++i) {
          if (w[i]->load(std::memory_order_seq_cst) != exp[i]) {
            changed = true;
            break;
          }
        }
        if (changed) {
          eventfd_write(efd, 1);
          break;  // round consumed; wait for the next publish
        }
        if (!w.empty()) {
          futex_wait_for(w[rot], exp[rot], kScanSliceNs);
          rot = (rot + 1) % w.size();
        }
      }
    }
  }
};

WaitSet::WaitSet(NativePlatform& plat, const WaitSetOptions& opts)
    : plat_(&plat), backend_(resolve_backend(opts.backend)) {
  if (backend_ == WaitSetBackend::kEventfdBridge) {
    bridge_ = std::make_unique<Bridge>();
    bridge_->efd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    ULIPC_INVARIANT(bridge_->efd >= 0, "eventfd creation failed");
    bridge_->thr = std::thread([b = bridge_.get()] { b->main(); });
  }
}

WaitSet::~WaitSet() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Member& m : members_) detach_locked(m);
    members_.clear();
  }
  if (bridge_) {
    bridge_->shutdown.store(true, std::memory_order_relaxed);
    bridge_->cv.notify_one();
    if (bridge_->thr.joinable()) bridge_->thr.join();
    if (bridge_->efd >= 0) close(bridge_->efd);
  }
}

WaitSetBackend WaitSet::resolve_backend(WaitSetBackend requested) noexcept {
  if (requested == WaitSetBackend::kEventfdBridge) return requested;
  if (requested == WaitSetBackend::kAuto && force_bridge_env()) {
    return WaitSetBackend::kEventfdBridge;
  }
  return futex_waitv_available() ? WaitSetBackend::kFutexWaitv
                                 : WaitSetBackend::kEventfdBridge;
}

int WaitSet::poll_fd() const noexcept {
  return bridge_ ? bridge_->efd : -1;
}

std::size_t WaitSet::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return members_.size();
}

bool WaitSet::add(NativeEndpoint* ep, std::uint64_t tag) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Member& m : members_) {
      if (m.ep == ep) return false;
    }
    members_.push_back(Member{ep, tag, 0, false});
  }
  kick();  // a blocked waiter's snapshot predates this member
  return true;
}

bool WaitSet::remove(NativeEndpoint* ep) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(members_.begin(), members_.end(),
                           [ep](const Member& m) { return m.ep == ep; });
    if (it == members_.end()) return false;
    detach_locked(*it);
    members_.erase(it);
  }
  kick();
  return true;
}

/// Claims a ready member (called under mu_ with its queue known non-empty):
/// tas restores the awake flag FIRST — stopping later producers from
/// V()ing — and tas==1 proves a producer's tas ran after our arm cleared
/// the flag, so exactly one V is banked or in flight; absorb it so the
/// count cannot accumulate (at most one token per arm cycle: only the
/// first producer to see awake==0 pays the V).
void WaitSet::claim_locked(Member& m) {
  if (plat_->tas_awake(*m.ep)) {
    ++plat_->counters().sem_absorbs;
    explore::about_to_block(explore::Point::kWsAbsorb);
    plat_->sem_p(*m.ep);
    explore::resumed();
  }
  doorbell_disarm(m.ep->doorbell);
  m.armed = false;
}

/// Restores a member to the resting single-consumer state on detach. The
/// per-member `armed` bool is load-bearing: running the tas/absorb
/// discipline on an UNARMED member (awake already set, no token owed)
/// would absorb a token that does not exist and block forever.
void WaitSet::detach_locked(Member& m) {
  if (!m.armed) return;
  if (plat_->tas_awake(*m.ep)) {
    ++plat_->counters().sem_absorbs;
    explore::about_to_block(explore::Point::kWsAbsorb);
    plat_->sem_p(*m.ep);
    explore::resumed();
  }
  doorbell_disarm(m.ep->doorbell);
  m.armed = false;
}

Status WaitSet::wait(std::int64_t deadline_ns,
                     std::vector<std::uint64_t>* ready) {
  if (ready != nullptr) ready->clear();
  bool just_woke = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      // Arm pass (aggregate C.2). clear_awake only on the unarmed->armed
      // transition: re-clearing an armed member whose producer already set
      // the flag and banked its V would let a SECOND producer V again —
      // token accumulation. Already-armed members (previous wait timed out
      // or was kicked) just refresh their doorbell snapshot.
      for (Member& m : members_) {
        m.expected = doorbell_arm(m.ep->doorbell);
        if (!m.armed) {
          plat_->clear_awake(*m.ep);
          m.armed = true;
          ++plat_->counters().doorbell_arms;
          explore::point(explore::Point::kWsArm);
        }
      }
      plat_->fence();  // order the arms before the recheck (SB pattern)
      // Recheck pass (aggregate C.3): claim every ready member.
      std::uint32_t nready = 0;
      for (Member& m : members_) {
        if (!plat_->queue_empty(*m.ep)) {
          explore::point(explore::Point::kWsRecheckHit);
          claim_locked(m);
          if (ready != nullptr) ready->push_back(m.tag);
          ++nready;
        }
      }
      if (nready > 0) {
        plat_->metrics().hist(obs::HistKind::kMembersReady).record(nready);
        return Status::kOk;
      }
      if (just_woke) {
        ++plat_->counters().spurious_ungates;
        explore::point(explore::Point::kWsSpurious);
      }
      just_woke = false;
      explore::point(explore::Point::kWsRecheckEmpty);
      // Blocking snapshot: the control doorbell plus every member's.
      blk_words_.clear();
      blk_expected_.clear();
      blk_words_.push_back(&ctrl_);
      blk_expected_.push_back(ctrl_.load(std::memory_order_seq_cst));
      for (const Member& m : members_) {
        blk_words_.push_back(&m.ep->doorbell);
        blk_expected_.push_back(m.expected);
      }
    }
    // Publish before the deadline check so an external epoll user (bridge
    // backend) gets the eventfd armed even from a past-deadline poll call.
    if (backend_ == WaitSetBackend::kEventfdBridge) publish_bridge();
    if (deadline_ns != kNoDeadline && plat_->time_ns() >= deadline_ns) {
      ++plat_->counters().timeouts;
      explore::point(explore::Point::kWsTimedOut);
      return Status::kTimeout;  // members stay armed; next wait resumes
    }
    ++plat_->counters().blocks;
    explore::about_to_block(explore::Point::kWsBlock);
    const bool timed_out = block(deadline_ns);
    explore::resumed();
    if (timed_out) {
      // Loop once more: the arm pass refreshes snapshots and the recheck
      // runs before the deadline check returns kTimeout — the aggregate
      // analogue of the scalar expiry recheck (a producer that raced the
      // timer delivers its message now instead of leaving a stale token).
      explore::point(explore::Point::kWsTimedOut);
    } else {
      explore::point(explore::Point::kWsUngate);
      just_woke = true;
    }
  }
}

bool WaitSet::block(std::int64_t deadline_ns) {
  if (backend_ == WaitSetBackend::kEventfdBridge) {
    return block_bridge(deadline_ns);
  }
  return block_waitv(deadline_ns);
}

bool WaitSet::block_waitv(std::int64_t deadline_ns) {
  const auto n = static_cast<std::uint32_t>(blk_words_.size());
  FutexWaitvEntry wv[kFutexWaitvMax];
  if (n <= kFutexWaitvMax) {
    for (std::uint32_t i = 0; i < n; ++i) {
      futex_waitv_set(wv[i], blk_words_[i], blk_expected_[i]);
    }
    for (;;) {
      const std::int64_t abs = deadline_ns == kNoDeadline ? -1 : deadline_ns;
      const long rc = futex_waitv_block(wv, n, abs);
      if (rc >= 0) return false;           // woken by a ring
      if (errno == EAGAIN) return false;   // a word already changed == wake
      if (errno == EINTR) continue;        // signal: re-arm, deadline is abs
      if (errno == ETIMEDOUT) return true;
      return false;  // unexpected errno: surface as a spurious wake — the
                     // recheck either finds work or blocks again
    }
  }
  // More members than one futex_waitv can carry: rotate through chunks
  // with short slices, rescanning everything between slices so a ring in
  // an unwatched chunk is seen within kScanSliceNs.
  for (;;) {
    for (std::uint32_t base = 0; base < n; base += kFutexWaitvMax) {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (blk_words_[i]->load(std::memory_order_seq_cst) !=
            blk_expected_[i]) {
          return false;
        }
      }
      const std::uint32_t k = std::min(kFutexWaitvMax, n - base);
      for (std::uint32_t i = 0; i < k; ++i) {
        futex_waitv_set(wv[i], blk_words_[base + i], blk_expected_[base + i]);
      }
      std::int64_t slice = futex_clock_ns() + kScanSliceNs;
      if (deadline_ns != kNoDeadline) {
        slice = std::min(slice, deadline_ns);
      }
      const long rc = futex_waitv_block(wv, k, slice);
      if (rc >= 0 || errno == EAGAIN) return false;
      // EINTR and ETIMEDOUT both advance to the next chunk.
      if (deadline_ns != kNoDeadline && futex_clock_ns() >= deadline_ns) {
        return true;
      }
    }
  }
}

void WaitSet::publish_bridge() {
  Bridge& b = *bridge_;
  {
    std::lock_guard<std::mutex> lk(b.mu);
    b.words = blk_words_;
    b.expected = blk_expected_;
    b.round.fetch_add(1, std::memory_order_relaxed);
  }
  b.cv.notify_one();
}

bool WaitSet::block_bridge(std::int64_t deadline_ns) {
  pollfd pfd{};
  pfd.fd = bridge_->efd;
  pfd.events = POLLIN;
  for (;;) {
    int timeout_ms = -1;
    if (deadline_ns != kNoDeadline) {
      const std::int64_t remaining = deadline_ns - plat_->time_ns();
      if (remaining <= 0) return true;
      timeout_ms = static_cast<int>(std::min<std::int64_t>(
          (remaining + 999'999) / 1'000'000, INT_MAX));
    }
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) {
      eventfd_t v = 0;
      (void)eventfd_read(bridge_->efd, &v);  // drain (nonblocking)
      return false;
    }
    if (rc == 0) return true;
    if (errno != EINTR) return false;  // poll error: spurious wake, recheck
  }
}

// ---- single-worker fan-in server ----

FaninResult run_waitset_fanin_server(NativePlatform& plat,
                                     const std::vector<ShmChannel*>& channels,
                                     std::uint32_t expected_disconnects,
                                     const FaninOptions& opts) {
  FaninResult r;
  WaitSetOptions wopts;
  wopts.backend = opts.backend;
  WaitSet ws(plat, wopts);
  for (std::size_t i = 0; i < channels.size(); ++i) {
    ws.add(&channels[i]->server_endpoint(), i);
  }
  std::vector<std::uint64_t> ready;
  Message in[kServerBatch];
  Message out[kServerBatch];
  std::uint32_t disconnected = 0;
  while (disconnected < expected_disconnects) {
    const Status st =
        ws.wait(plat.time_ns() + opts.liveness_timeout_ns, &ready);
    ++r.waits;
    if (st == Status::kTimeout) {
      if (opts.on_idle) {
        disconnected += opts.on_idle();
        continue;
      }
      r.gave_up = true;
      break;
    }
    r.ready_members += ready.size();
    for (const std::uint64_t tag : ready) {
      ShmChannel* ch = channels[tag];
      NativeEndpoint& srv = ch->server_endpoint();
      // Drain the claimed member completely: producers that enqueue during
      // the drain see awake set and bank no wake; stragglers that land
      // after the final empty check are caught by the next wait's recheck.
      for (;;) {
        const std::uint32_t got = plat.dequeue_batch(srv, in, kServerBatch);
        if (got == 0) break;
        plat.counters().receives += got;
        ++plat.counters().batch_dequeues;
        std::uint32_t i = 0;
        while (i < got) {
          const std::uint32_t cid = in[i].channel;
          std::uint32_t n = 0;
          while (i < got && in[i].channel == cid) {
            out[n++] = serve_one_request(plat, in[i++], r.server,
                                         disconnected);
          }
          // Bounded reply so a dead client's full reply queue cannot wedge
          // the whole fan-in worker (same rule as the pool worker).
          (void)detail::enqueue_batch_and_wake_until(
              plat, ch->client_endpoint(cid), out, n,
              plat.time_ns() + opts.liveness_timeout_ns);
          plat.counters().replies += n;
        }
      }
    }
  }
  r.disconnected = disconnected;
  return r;
}

}  // namespace ulipc
