#include "runner/parallel_executor.hpp"

#include <chrono>

#include "runner/thread_pool.hpp"

namespace refer::runner {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

ParallelExecutor::ParallelExecutor(int jobs) : jobs_(resolve_jobs(jobs)) {}

std::vector<harness::SweepPoint> ParallelExecutor::sweep(
    harness::Scenario base, const std::vector<double>& xs,
    const std::function<void(harness::Scenario&, double)>& configure,
    int repetitions) {
  const auto t0 = Clock::now();
  auto points = harness::sweep(
      std::move(base), xs, configure, repetitions, jobs_,
      [this](const harness::JobRecord& r) { records_.push_back(r); });
  wall_s_ += seconds_since(t0);
  return points;
}

harness::AggregateMetrics ParallelExecutor::run_repeated(
    harness::SystemKind kind, harness::Scenario scenario, int repetitions,
    double x) {
  const auto t0 = Clock::now();
  auto agg = harness::run_repeated(
      kind, std::move(scenario), repetitions, jobs_,
      [this](const harness::JobRecord& r) { records_.push_back(r); }, x);
  wall_s_ += seconds_since(t0);
  return agg;
}

std::vector<harness::RunMetrics> ParallelExecutor::run_batch(
    const std::vector<BatchJob>& batch) {
  const auto t0 = Clock::now();
  auto metrics = harness::run_batch(
      batch, jobs_,
      [this](const harness::JobRecord& r) { records_.push_back(r); });
  wall_s_ += seconds_since(t0);
  return metrics;
}

harness::RunMetrics ParallelExecutor::run_once(
    harness::SystemKind kind, const harness::Scenario& scenario) {
  const auto t0 = Clock::now();
  harness::JobRecord record;
  record.system = kind;
  record.seed = scenario.seed;
  record.metrics = harness::run_once(kind, scenario);
  record.wall_ms = seconds_since(t0) * 1000.0;
  wall_s_ += seconds_since(t0);
  records_.push_back(record);
  return record.metrics;
}

}  // namespace refer::runner
