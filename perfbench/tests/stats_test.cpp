// Checks the benchmark's percentile helper on synthetic sample sets: the
// tail rule (the highest percentile with at least ten samples beyond it)
// and the histogram's percentile reads.
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

}  // namespace

int main() {
  using perfbench::Histogram;
  using perfbench::tail_percentile;

  check(tail_percentile(0) == 0.0, "no samples: no tail percentile");
  check(tail_percentile(99) == 0.0, "99 samples: p90 has 9.9 beyond it");
  check(tail_percentile(100) == 90.0, "100 samples: p90");
  check(tail_percentile(999) == 90.0, "999 samples: p99 has 9.99 beyond it");
  check(tail_percentile(1'000) == 99.0, "1000 samples: p99");
  check(std::fabs(tail_percentile(100'000) - 99.99) < 1e-9,
        "100000 samples: p99.99");
  check(std::fabs(tail_percentile(99'999) - 99.9) < 1e-9,
        "99999 samples: p99.9");

  // Uniform 1..100000 ns: every percentile p reads ~p% of 100000, and the
  // reported tail leaves exactly ten samples beyond it.
  Histogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  const double tail = tail_percentile(h.count());
  check(near(h.percentile(50), 50'000, 0.01), "uniform: p50");
  check(near(h.percentile(99), 99'000, 0.01), "uniform: p99");
  check(near(h.percentile(tail), 99'990, 0.01), "uniform: tail p99.99");

  // Small values are exact.
  Histogram small;
  for (int i = 0; i < 10; ++i) small.record(7);
  check(small.percentile(50) >= 7.0 && small.percentile(50) <= 8.0,
        "constant 7: p50 in its bucket");

  // A bimodal set (99% at 1 us, 1% at 50 us): p50 sits in the low mode,
  // p99.9 in the high one.
  Histogram bi;
  for (int i = 0; i < 99'000; ++i) bi.record(1'000);
  for (int i = 0; i < 1'000; ++i) bi.record(50'000);
  check(near(bi.percentile(50), 1'000, 0.02), "bimodal: p50 low mode");
  check(near(bi.percentile(99.9), 50'000, 0.02), "bimodal: p99.9 high mode");

  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  check(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
