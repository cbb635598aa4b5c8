// The experiment execution engine: decomposes sweeps / repeated runs
// into independent (system, x, seed) jobs on a fixed-size ThreadPool and
// reaggregates into the harness's SweepPoint / AggregateMetrics shapes,
// bit-identical to the serial path (run_once is deterministic and uses
// no global random state).
//
// On top of the harness entry points it accumulates a JobRecord per
// run_once call -- seed, wall time, full RunMetrics -- in deterministic
// order, which is what the ResultsWriter exports as JSON.
#pragma once

#include <functional>
#include <vector>

#include "harness/experiment.hpp"

namespace refer::runner {

class ParallelExecutor {
 public:
  /// `jobs` <= 0 means one worker per hardware thread; 1 = serial.
  explicit ParallelExecutor(int jobs = 1);

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Parallel counterpart of harness::sweep: identical results for any
  /// job count, plus a JobRecord per run appended to records().
  [[nodiscard]] std::vector<harness::SweepPoint> sweep(
      harness::Scenario base, const std::vector<double>& xs,
      const std::function<void(harness::Scenario&, double)>& configure,
      int repetitions);

  /// Parallel counterpart of harness::run_repeated.  `x` only labels
  /// the emitted JobRecords (harness::run_repeated's x).
  [[nodiscard]] harness::AggregateMetrics run_repeated(
      harness::SystemKind kind, harness::Scenario scenario, int repetitions,
      double x = 0);

  /// Single run with record-keeping (timeline / one-off views).
  [[nodiscard]] harness::RunMetrics run_once(
      harness::SystemKind kind, const harness::Scenario& scenario);

  using BatchJob = harness::BatchJob;

  /// Parallel counterpart of harness::run_batch: metrics in input order,
  /// one JobRecord per job appended to records() in the same order
  /// regardless of schedule.  Used by the scenario fuzzer (src/verify),
  /// whose cases vary every scenario knob and so do not fit the
  /// homogeneous sweep shapes.
  [[nodiscard]] std::vector<harness::RunMetrics> run_batch(
      const std::vector<BatchJob>& batch);

  /// Every job executed so far, in deterministic (x, system, rep) order
  /// per call, calls appended in invocation order.
  [[nodiscard]] const std::vector<harness::JobRecord>& records()
      const noexcept {
    return records_;
  }

  /// Wall-clock seconds spent inside sweep()/run_repeated() calls.
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }

  void clear() noexcept {
    records_.clear();
    wall_s_ = 0;
  }

 private:
  int jobs_;
  std::vector<harness::JobRecord> records_;
  double wall_s_ = 0;
};

}  // namespace refer::runner
