// Client-to-shard placement for the sharded server pool (the connect-time
// half of the paper's multiprocessor scale-out: Fig. 11's per-processor
// servers, generalized to N workers each owning one receive queue).
//
// The map lives inside the channel's shared-memory header, so every
// participant — clients picking a shard at connect, workers re-placing the
// clients of a dead peer, ulipc-stat rendering shard balance — reads one
// authoritative table. Two policies:
//   * kLeastLoaded: pick the active shard with the fewest assigned clients
//     (greedy balance; what the benchmarks use);
//   * kRendezvous: highest-random-weight hash of (client, shard) over the
//     ACTIVE shards — stable under membership change, so when a worker dies
//     only the dead shard's clients move (the classic HRW property).
//
// Write serialization is by convention, not by lock: a client writes only
// its own assignment cell (at connect/disconnect), and re-placement after a
// worker death runs under the channel's recovery lock. The per-shard
// statistic cells (steal/migration) are written by whichever worker did the
// stealing/migrating; they are plain relaxed counters.
#pragma once

#include <atomic>
#include <cstdint>

namespace ulipc {

/// How a pool client chooses its shard at connect time.
enum class PlacementPolicy : std::uint8_t {
  kLeastLoaded = 0,
  kRendezvous = 1,
};

constexpr const char* placement_policy_name(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kRendezvous: return "rendezvous";
  }
  return "?";
}

/// Sentinel for "no shard": unplaced clients, and pick() on an empty map.
inline constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

template <std::uint32_t MaxShards, std::uint32_t MaxClients>
struct ShardMap {
  /// Lifecycle of one shard's receive queue.
  enum State : std::uint32_t {
    kVacant = 0,   // beyond shard_count; never used
    kActive = 1,   // a worker serves (or will serve) this queue
    kRetired = 2,  // its worker died; survivors drained it and re-placed
                   // its clients — only straggler re-drains touch it now
  };

  struct Shard {
    std::atomic<std::uint32_t> state{kVacant};
    std::atomic<std::uint32_t> assigned{0};       // clients placed here
    std::atomic<std::uint64_t> steal_passes{0};   // times a thief hit this
                                                  // shard (as the victim)
    std::atomic<std::uint64_t> stolen_msgs{0};    // messages thieves took
    std::atomic<std::uint64_t> migrated_msgs{0};  // messages drained out
                                                  // after its worker died
  };

  std::atomic<std::uint32_t> shard_count{0};
  // Bumped on every placement change (place/unplace/retire): lets a reader
  // cheaply notice that assignments moved under it.
  std::atomic<std::uint32_t> epoch{0};
  Shard shards[MaxShards];
  std::atomic<std::uint32_t> assignment_of[MaxClients];

  /// Formats the map for `n` shards, all immediately active: clients can be
  /// placed (and their requests queue up) before the workers even start.
  void init(std::uint32_t n) noexcept {
    shard_count.store(n, std::memory_order_relaxed);
    for (std::uint32_t s = 0; s < MaxShards; ++s) {
      shards[s].state.store(s < n ? kActive : kVacant,
                            std::memory_order_relaxed);
      shards[s].assigned.store(0, std::memory_order_relaxed);
      shards[s].steal_passes.store(0, std::memory_order_relaxed);
      shards[s].stolen_msgs.store(0, std::memory_order_relaxed);
      shards[s].migrated_msgs.store(0, std::memory_order_relaxed);
    }
    for (auto& a : assignment_of) a.store(kNoShard, std::memory_order_relaxed);
    epoch.store(0, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t count() const noexcept {
    return shard_count.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t state(std::uint32_t s) const noexcept {
    return shards[s].state.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t assignment(std::uint32_t client) const noexcept {
    return assignment_of[client].load(std::memory_order_acquire);
  }

  /// Highest-random-weight hash (splitmix64 finalizer over the pair): the
  /// rendezvous weight of placing `client` on `shard`.
  [[nodiscard]] static std::uint64_t weight(std::uint32_t client,
                                            std::uint32_t shard) noexcept {
    std::uint64_t x = (std::uint64_t{client} << 32) | (shard + 1u);
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  /// Chooses an ACTIVE shard for `client` under `policy` without assigning
  /// it. Returns kNoShard iff no shard is active. Under least-loaded,
  /// `*seen_load` (if given) receives the chosen shard's load as read.
  [[nodiscard]] std::uint32_t pick(
      std::uint32_t client, PlacementPolicy policy,
      std::uint32_t* seen_load = nullptr) const noexcept {
    const std::uint32_t n = count();
    std::uint32_t best = kNoShard;
    if (policy == PlacementPolicy::kRendezvous) {
      std::uint64_t best_w = 0;
      for (std::uint32_t s = 0; s < n; ++s) {
        if (state(s) != kActive) continue;
        const std::uint64_t w = weight(client, s);
        if (best == kNoShard || w > best_w) {
          best = s;
          best_w = w;
        }
      }
    } else {
      std::uint32_t best_load = 0;
      for (std::uint32_t s = 0; s < n; ++s) {
        if (state(s) != kActive) continue;
        const std::uint32_t load =
            shards[s].assigned.load(std::memory_order_acquire);
        if (best == kNoShard || load < best_load) {
          best = s;
          best_load = load;
        }
      }
      if (seen_load != nullptr) *seen_load = best_load;
    }
    return best;
  }

  /// Points `client` at shard `s` (kNoShard unassigns), maintaining the
  /// per-shard assigned counts. Returns `s`.
  std::uint32_t assign(std::uint32_t client, std::uint32_t s) noexcept {
    const std::uint32_t old =
        assignment_of[client].exchange(s, std::memory_order_acq_rel);
    if (old != kNoShard && old != s) {
      shards[old].assigned.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (s != kNoShard && old != s) {
      shards[s].assigned.fetch_add(1, std::memory_order_acq_rel);
    }
    epoch.fetch_add(1, std::memory_order_acq_rel);
    return s;
  }

  /// pick() + assign(): the connect-time placement step. Under
  /// least-loaded the chosen shard's count is claimed with a CAS from the
  /// load pick() saw, and a client that loses that race re-picks: two
  /// clients connecting at once can no longer both take the same minimum.
  std::uint32_t place(std::uint32_t client, PlacementPolicy policy) noexcept {
    if (policy != PlacementPolicy::kLeastLoaded) {
      const std::uint32_t s = pick(client, policy);
      return s == kNoShard ? kNoShard : assign(client, s);
    }
    for (;;) {
      std::uint32_t load = 0;
      const std::uint32_t s = pick(client, policy, &load);
      if (s == kNoShard) return kNoShard;
      if (!shards[s].assigned.compare_exchange_strong(
              load, load + 1, std::memory_order_acq_rel)) {
        continue;
      }
      // The claim already counted the client on `s`; release its old
      // shard's count (its own claim, when it was already on `s`).
      const std::uint32_t old =
          assignment_of[client].exchange(s, std::memory_order_acq_rel);
      if (old != kNoShard) {
        shards[old].assigned.fetch_sub(1, std::memory_order_acq_rel);
      }
      epoch.fetch_add(1, std::memory_order_acq_rel);
      return s;
    }
  }

  void unplace(std::uint32_t client) noexcept { assign(client, kNoShard); }

  /// Marks shard `s` retired (no-op unless currently active). Placement
  /// stops offering it from this point on.
  bool retire(std::uint32_t s) noexcept {
    std::uint32_t expect = kActive;
    const bool did = shards[s].state.compare_exchange_strong(
        expect, kRetired, std::memory_order_acq_rel);
    if (did) epoch.fetch_add(1, std::memory_order_acq_rel);
    return did;
  }

  /// Moves every client assigned to `dead` onto a surviving active shard.
  /// Call with `dead` already retired (so pick() cannot hand it back) and
  /// under the recovery lock (two survivors must not both re-place).
  /// Returns how many clients moved.
  std::uint32_t replace_clients_of(std::uint32_t dead,
                                   PlacementPolicy policy) noexcept {
    std::uint32_t moved = 0;
    for (std::uint32_t c = 0; c < MaxClients; ++c) {
      if (assignment(c) != dead) continue;
      // No survivors: leave assignments in place.
      if (place(c, policy) == kNoShard) break;
      ++moved;
    }
    return moved;
  }
};

}  // namespace ulipc
