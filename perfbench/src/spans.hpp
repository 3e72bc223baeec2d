// The traced run's spans, recorded only from the benchmark's own code
// around its calls into each layer of the library.
//
// A span is (trace id, span id, parent span id, name, start, end). Every
// span of one request shares the request's trace id; the request's root
// span has parent 0 and its children point at it. Spans stay in memory
// (a bounded buffer per client thread; later spans still feed the
// per-name totals but are not kept) and are written out when the run ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/clock.hpp"

namespace perfbench {

/// Span names, prefixed by the layer they time.
enum class SpanName : std::uint32_t {
  kRequest = 0,      // bench: one closed-loop request (root)
  kThink,            // bench: idle-wake think time
  kFill,             // bench: build the request (and its payload bytes)
  kLoan,             // queue: PayloadPool::loan
  kPublish,          // queue: PayloadPool::publish
  kSend,             // protocols: send / send_batch (blocks for the reply)
  kVerify,           // bench: check the reply (and its payload bytes)
  kRelease,          // queue: PayloadPool::release
  kCount,
};

constexpr const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kRequest: return "bench.request";
    case SpanName::kThink: return "bench.think";
    case SpanName::kFill: return "bench.fill";
    case SpanName::kLoan: return "queue.payload.loan";
    case SpanName::kPublish: return "queue.payload.publish";
    case SpanName::kSend: return "protocols.send";
    case SpanName::kVerify: return "bench.verify";
    case SpanName::kRelease: return "queue.payload.release";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  SpanName name = SpanName::kRequest;
  std::uint64_t start_tick = 0;
  std::uint64_t end_tick = 0;
};

/// One client thread's span log. Single writer; read after the thread ends.
class SpanLog {
 public:
  static constexpr std::size_t kKeep = 1u << 10;  // spans kept per thread

  explicit SpanLog(std::uint32_t thread, double ns_per_tick)
      : thread_(thread), ns_per_tick_(ns_per_tick) {
    kept_.reserve(kKeep);
  }

  /// Opens a request (a new trace id and its root span).
  void begin_request() noexcept {
    trace_ = (static_cast<std::uint64_t>(thread_) << 48) | ++requests_;
    root_ = next_id();
    root_start_ = ulipc::TscClock::now();
  }

  /// Records a child span of the current request.
  void child(SpanName n, std::uint64_t t0, std::uint64_t t1) {
    add(Span{trace_, next_id(), root_, n, t0, t1});
  }

  /// Closes the current request's root span.
  void end_request() {
    add(Span{trace_, root_, 0, SpanName::kRequest, root_start_,
             ulipc::TscClock::now()});
  }

  [[nodiscard]] std::uint64_t request_start() const noexcept {
    return root_start_;
  }
  [[nodiscard]] double total_ns(SpanName n) const noexcept {
    return static_cast<double>(total_ticks_[idx(n)]) * ns_per_tick_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Appends the kept spans as tab-separated lines (times in ns since
  /// `epoch_tick`).
  void write(std::FILE* f, std::uint64_t epoch_tick) const {
    for (const Span& s : kept_) {
      std::fprintf(f, "%u\t%llu\t%llu\t%llu\t%s\t%.0f\t%.0f\n", thread_,
                   static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   span_name(s.name),
                   static_cast<double>(s.start_tick - epoch_tick) *
                       ns_per_tick_,
                   static_cast<double>(s.end_tick - epoch_tick) *
                       ns_per_tick_);
    }
  }

 private:
  static constexpr std::size_t idx(SpanName n) noexcept {
    return static_cast<std::size_t>(n);
  }

  std::uint64_t next_id() noexcept {
    return (static_cast<std::uint64_t>(thread_) << 48) | ++spans_;
  }

  void add(const Span& s) {
    const std::uint64_t d = s.end_tick > s.start_tick
                                ? s.end_tick - s.start_tick
                                : 0;
    total_ticks_[idx(s.name)] += d;
    if (kept_.size() < kKeep) {
      kept_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  std::uint32_t thread_;
  double ns_per_tick_;
  std::uint64_t trace_ = 0;
  std::uint64_t root_ = 0;
  std::uint64_t root_start_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t spans_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ticks_[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::vector<Span> kept_;
};

}  // namespace perfbench
