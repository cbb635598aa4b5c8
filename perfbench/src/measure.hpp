// Measurement helpers of the benchmark: order statistics, guarded ratios,
// the output digest that decides whether a job's results are correct,
// and the host clocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks of the sorted samples; q = 0.5 is the usual median.  0 for an
/// empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// num / den, or 0 when the base is 0 (a layer that did no work).
[[nodiscard]] double ratio(double num, double den);

/// 64-bit FNV-1a over the deterministic outputs of one job: every field
/// the results document writes for the job record, except the host-time
/// and host-tuning fields that may differ between correct programs --
/// `wall_ms`, the `world.grid.*` and `world.neighbor_cache.*`
/// observability counters and the wall-clock `phase_us` /
/// `phase_total_us` timeseries accounts.  Going through
/// runner::ResultsWriter makes every RunMetrics field count, including
/// fields added later.
[[nodiscard]] std::uint64_t job_digest(const refer::harness::JobRecord& job);

[[nodiscard]] std::string hex_digest(std::uint64_t digest);

/// Peak resident set of this process so far, MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Run time in seconds of a fixed host-speed probe: a seed-free kernel
/// shaped like the simulator's hot loops (a binary-heap event queue,
/// scattered reads of node state, distance arithmetic and short-lived
/// allocations), once over a cache-resident and once over a memory-bound
/// working set.  It is the benchmark's own code, so a change to the
/// program does not move it; only the host's speed does.
[[nodiscard]] double probe_seconds();

/// Host wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace perfbench
