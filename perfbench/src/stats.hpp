// Latency statistics for the benchmark: a fine log-linear histogram and the
// percentile rules the reported figures follow.
//
// Each timed call lands in a bucket whose width is at most 1/64 of its
// value (6 bits of mantissa per power-of-two octave), so a run of millions
// of calls needs a few kilobytes and a percentile read is accurate to well
// under 1%. Values are nanoseconds.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 6;
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kLinear = 2 * kSub;  // exact below 128
  static constexpr std::uint32_t kBuckets = kLinear + (63 - kSubBits) * kSub;

  static constexpr std::uint32_t index_of(std::uint64_t v) noexcept {
    if (v < kLinear) return static_cast<std::uint32_t>(v);
    const auto msb = static_cast<std::uint32_t>(63 - std::countl_zero(v));
    const auto sub =
        static_cast<std::uint32_t>((v >> (msb - kSubBits)) & (kSub - 1));
    return kLinear + (msb - kSubBits - 1) * kSub + sub;
  }

  static constexpr std::uint64_t lower_bound(std::uint32_t i) noexcept {
    if (i < kLinear) return i;
    const std::uint32_t msb = (i - kLinear) / kSub + kSubBits + 1;
    const std::uint32_t sub = (i - kLinear) % kSub;
    return (std::uint64_t{1} << msb) | (std::uint64_t{sub} << (msb - kSubBits));
  }

  static constexpr std::uint64_t upper_bound(std::uint32_t i) noexcept {
    return i + 1 >= kBuckets ? ~std::uint64_t{0} : lower_bound(i + 1);
  }

  Histogram() : bucket_(kBuckets, 0) {}

  void record(std::uint64_t v) noexcept {
    ++bucket_[index_of(v)];
    ++count_;
  }

  void merge(const Histogram& o) {
    for (std::uint32_t i = 0; i < kBuckets; ++i) bucket_[i] += o.bucket_[i];
    count_ += o.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// p in [0, 100]: the value below which p% of the samples fall, linearly
  /// interpolated inside the landing bucket. 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      if (bucket_[i] == 0) continue;
      const std::uint64_t next = seen + bucket_[i];
      if (static_cast<double>(next) >= rank) {
        const auto lo = static_cast<double>(lower_bound(i));
        const auto hi = static_cast<double>(upper_bound(i));
        const double frac = (rank - static_cast<double>(seen)) /
                            static_cast<double>(bucket_[i]);
        return lo + (hi - lo) * frac;
      }
      seen = next;
    }
    return static_cast<double>(lower_bound(kBuckets - 1));
  }

 private:
  std::vector<std::uint64_t> bucket_;
  std::uint64_t count_ = 0;
};

/// The highest percentile of the ladder p90, p99, p99.9, ... that still has
/// at least ten samples beyond it among `n`: 100 * (1 - 10^-k) for the
/// largest k with n * 10^-k >= 10. Returns 0 when even p90 has fewer than
/// ten samples beyond it (n < 100), i.e. no tail percentile is reportable.
inline double tail_percentile(std::uint64_t n) noexcept {
  double p = 0.0;
  double beyond = 0.1;
  for (int k = 1; k <= 9; ++k, beyond /= 10.0) {
    if (static_cast<double>(n) * beyond < 10.0 - 1e-9) break;
    p = 100.0 * (1.0 - beyond);
  }
  return p;
}

/// Median of a small sample (used for repeated set-up and probe blocks).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
