// Queue-engine selection: which concurrent FIFO implementation backs each
// node-queue topology of a channel (client reply endpoints are SPSC rings
// and take no engine).
//
// The paper's evaluation uses the Michael & Scott two-lock queue, and that
// remains the default engine. PR-4's idle-steal made pool shards genuinely
// multi-consumer, and the two-lock design is the contention ceiling there
// (~48 ns uncontended vs ~2.5 us under contended ping-pong on a 1-CPU
// host) — so the lock-free M&S engine (queue/lockfree_queue.hpp) can
// be swapped in per topology behind the MsgQueue facade
// (queue/msg_queue.hpp) without touching the protocol stack.
//
// Selection layers, strongest last:
//   1. compile-time default    ULIPC_DEFAULT_QUEUE_ENGINE (CMake cache var,
//                              baked in as a string macro);
//   2. process environment     ULIPC_QUEUE_ENGINE — either one engine name
//                              applied to every topology ("lockfree"), or a
//                              comma list of per-topology overrides
//                              ("server=lockfree,shard=twolock");
//   3. explicit per-channel    ShmChannel::Config::engines.
// CI pins engines via layer 2 so every suite runs against both; benches pin
// via layer 2 or 3 so both engines' numbers land in the trajectory.
#pragma once

#include <cstdlib>
#include <cstring>
#include <string_view>

namespace ulipc {

enum class QueueEngine : std::uint8_t {
  kTwoLock = 0,   // M&S two-lock (paper default): robust spinlocks + repair
  kLockFree = 1,  // M&S lock-free: tagged-index CAS links + helping
};

constexpr const char* queue_engine_name(QueueEngine e) noexcept {
  switch (e) {
    case QueueEngine::kTwoLock: return "twolock";
    case QueueEngine::kLockFree: return "lockfree";
  }
  return "?";
}

/// Parses an engine name ("twolock"/"lockfree"). Returns false (and leaves
/// *out untouched) on anything else.
inline bool parse_queue_engine(std::string_view s, QueueEngine* out) noexcept {
  if (s == "twolock" || s == "two-lock" || s == "2lock") {
    *out = QueueEngine::kTwoLock;
    return true;
  }
  if (s == "lockfree" || s == "lock-free" || s == "lf") {
    *out = QueueEngine::kLockFree;
    return true;
  }
  return false;
}

// Compile-time default, overridable from CMake:
//   cmake -DULIPC_DEFAULT_QUEUE_ENGINE=lockfree
#ifndef ULIPC_DEFAULT_QUEUE_ENGINE
#define ULIPC_DEFAULT_QUEUE_ENGINE "twolock"
#endif

/// Per-topology engine choice. The two topologies have genuinely
/// different contention shapes, so they are pinned independently:
///   server — the shared MPSC receive endpoint (every client produces);
///   shard  — pool shard receive endpoints, MPMC since PR-4's idle-steal
///            lets any worker consume any shard (the two-lock engine's
///            worst case).
struct QueueEnginePolicy {
  QueueEngine server = QueueEngine::kTwoLock;
  QueueEngine shard = QueueEngine::kTwoLock;

  /// The compile-time default for every topology.
  static QueueEnginePolicy defaults() noexcept {
    QueueEnginePolicy p;
    QueueEngine def = QueueEngine::kTwoLock;
    (void)parse_queue_engine(ULIPC_DEFAULT_QUEUE_ENGINE, &def);
    p.server = p.shard = def;
    return p;
  }

  /// defaults() with the ULIPC_QUEUE_ENGINE environment override applied.
  /// Grammar: a bare engine name sets both topologies; a comma list of
  /// `topology=engine` pairs (topologies: server, shard) sets them
  /// individually. Unknown names/keys are ignored — a bench box with a
  /// stale variable must not change behavior silently into a crash.
  static QueueEnginePolicy from_env() noexcept {
    QueueEnginePolicy p = defaults();
    const char* env = std::getenv("ULIPC_QUEUE_ENGINE");
    if (env == nullptr || *env == '\0') return p;
    std::string_view rest(env);
    QueueEngine all = QueueEngine::kTwoLock;
    if (parse_queue_engine(rest, &all)) {
      p.server = p.shard = all;
      return p;
    }
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      std::string_view item = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view{}
                                             : rest.substr(comma + 1);
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string_view key = item.substr(0, eq);
      QueueEngine e = QueueEngine::kTwoLock;
      if (!parse_queue_engine(item.substr(eq + 1), &e)) continue;
      if (key == "server") {
        p.server = e;
      } else if (key == "shard") {
        p.shard = e;
      }
    }
    return p;
  }
};

}  // namespace ulipc
