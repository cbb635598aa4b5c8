#include "verify/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "app/fault_schedule.hpp"
#include "common/rng.hpp"
#include "runner/parallel_executor.hpp"

namespace refer::verify {

harness::Scenario ScenarioFuzzer::generate(std::uint64_t seed) {
  // A stream independent of every in-run stream: the scenario knobs must
  // not correlate with the simulation draws made from scenario.seed.
  Rng rng(seed ^ 0xF022A51DC3B7E991ULL);
  harness::Scenario sc;
  sc.seed = seed;

  // Deployment geometry.  5 actuators is the paper's quincunx; larger
  // counts exercise the zig-zag strip and more K(2,3) cells.  Ranges
  // scale with the world side so the actuator triangulation fits (the
  // quincunx needs actuator_range >= side/2) and sensor density stays
  // in a regime where cells can usually be built -- build failures are
  // legal outcomes but check almost nothing.
  sc.area_side_m = rng.uniform(350, 650);
  sc.n_actuators = rng.chance(0.25) ? static_cast<int>(rng.range(6, 9)) : 5;
  sc.n_sensors = static_cast<int>(rng.range(60, 200));
  sc.sensor_spread_m = sc.area_side_m * rng.uniform(0.32, 0.5);
  sc.sensor_range_m = sc.area_side_m * rng.uniform(0.18, 0.28);
  sc.actuator_range_m = sc.area_side_m * rng.uniform(0.51, 0.62);

  // Mobility.
  sc.mobile = rng.chance(0.8);
  sc.min_speed_mps = 0;
  sc.max_speed_mps = rng.uniform(0.5, 4.0);

  // Traffic mix.
  sc.sources_per_round = static_cast<int>(rng.range(2, 8));
  sc.round_period_s = rng.uniform(5, 12);
  sc.packets_per_second = rng.uniform(2, 12);
  sc.packet_bytes = static_cast<std::size_t>(rng.range(500, 4000));
  sc.warmup_s = rng.uniform(5, 10);
  sc.measure_s = rng.uniform(8, 20);
  sc.qos_deadline_s = rng.uniform(0.3, 1.0);

  // Fault injection: node kills every fault_period_s, link flaps as
  // per-frame loss.  Half the cases keep perfect links so the loss-free
  // invariants also stay covered.
  sc.faulty_nodes = rng.chance(0.7)
                        ? static_cast<int>(rng.range(0, sc.n_sensors / 5))
                        : 0;
  sc.fault_period_s = rng.uniform(4, 12);
  sc.loss_probability = rng.chance(0.5) ? rng.uniform(0, 0.1) : 0.0;

  // Kernel / harness toggles.
  sc.csma = rng.chance(0.9);
  (void)rng.chance(0.9);  // retired spatial-index draw; keeps seeds stable
  (void)rng.chance(0.1);  // retired event-queue draw; keeps seeds stable
  sc.timeline_bucket_s = rng.chance(0.3) ? 5.0 : 0.0;
  sc.profile = rng.chance(0.25);

  // Closed-loop app layer (src/app): half the cases run control loops
  // so the registration / keepalive / fail-over invariants stay fuzzed
  // alongside the routing ones.  Draws are appended after every
  // pre-existing knob, so seeds produce the same base scenario they
  // always did.
  sc.app_enabled = rng.chance(0.5);
  if (sc.app_enabled) {
    sc.app_event_period_s = rng.uniform(4, 12);
    sc.app_loop_deadline_s = rng.uniform(0.5, 2.0);
    sc.app_keepalive_period_s = rng.uniform(2, 6);
    sc.app_keepalive_miss_limit = static_cast<int>(rng.range(1, 3));
    sc.app_repair_s = rng.uniform(5, 20);
    sc.app_break_rate_hz =
        rng.chance(0.6) ? rng.uniform(0.005, 0.05) : 0.0;
    if (rng.chance(0.3)) {
      // A scripted break/repair window or two on top of (or instead of)
      // the Poisson breaks -- the deterministic AppFaultSchedule path.
      std::vector<app::FaultWindow> windows;
      const int count = static_cast<int>(rng.range(1, 2));
      for (int i = 0; i < count; ++i) {
        app::FaultWindow w;
        w.actuator_index = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(sc.n_actuators)));
        w.start_rel_s = rng.uniform(0, sc.warmup_s + sc.measure_s);
        w.duration_s = rng.uniform(2, 10);
        windows.push_back(w);
      }
      sc.app_fault_schedule = app::format_fault_schedule(windows);
    }
  }

  (void)rng.chance(0.9);  // retired neighbor-cache draw; keeps seeds stable

  // Routing policy: a third of the cases ride the regular all-to-all
  // walks (kautz/regular.hpp) so the policy's invariants -- valid arc
  // walks, Theorem 3.8 fail-over behind them, the trace_report regular
  // audit -- get fuzzed alongside greedy.  Appended after every
  // pre-existing draw so old seeds reproduce unchanged.
  sc.routing_policy = rng.chance(1.0 / 3.0) ? harness::RoutingPolicy::kRegular
                                            : harness::RoutingPolicy::kGreedy;
  return sc;
}

std::vector<Violation> run_case(harness::SystemKind kind,
                                harness::Scenario scenario,
                                const std::string& trace_path) {
  scenario.trace_path = trace_path;
  InvariantChecker checker;
  scenario.observer = &checker;
  (void)harness::run_once(kind, scenario);
  return checker.violations();
}

namespace {

std::string resolve_trace_dir(const std::string& requested) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = requested.empty()
                     ? fs::temp_directory_path(ec) / "refer_fuzz"
                     : fs::path(requested);
  fs::create_directories(dir, ec);
  return dir.string();
}

}  // namespace

FuzzSummary run_fuzz(const FuzzOptions& options,
                     const std::function<void(int, int)>& progress) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string dir = resolve_trace_dir(options.trace_dir);
  runner::ParallelExecutor executor(options.jobs);
  FuzzSummary summary;
  summary.cases_requested = std::max(0, options.seeds);

  const int wave = std::max(executor.jobs() * 2, 4);
  int next = 0;
  while (next < summary.cases_requested) {
    if (options.budget_s > 0 && summary.cases_run > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (elapsed >= options.budget_s) break;
    }
    const int count = std::min(wave, summary.cases_requested - next);
    std::vector<runner::ParallelExecutor::BatchJob> batch(
        static_cast<std::size_t>(count));
    // One checker per job: observers are single-run-local (they attach a
    // tracer tap), so concurrent jobs must not share one.
    std::vector<std::unique_ptr<InvariantChecker>> checkers;
    checkers.reserve(batch.size());
    for (int i = 0; i < count; ++i) {
      const std::uint64_t seed =
          options.base_seed + static_cast<std::uint64_t>(next + i);
      runner::ParallelExecutor::BatchJob& job =
          batch[static_cast<std::size_t>(i)];
      job.system = harness::SystemKind::kRefer;
      job.scenario = ScenarioFuzzer::generate(seed);
      job.scenario.planted_bug = options.planted_bug;
      if (options.force_app) {
        job.scenario.app_enabled = true;
        if (job.scenario.app_break_rate_hz == 0 &&
            job.scenario.app_fault_schedule.empty()) {
          job.scenario.app_break_rate_hz = 0.01;
        }
      }
      job.scenario.trace_path =
          dir + "/fuzz_" + std::to_string(seed) + ".jsonl";
      checkers.push_back(std::make_unique<InvariantChecker>());
      job.scenario.observer = checkers.back().get();
    }
    const std::vector<harness::RunMetrics> metrics =
        executor.run_batch(batch);
    for (int i = 0; i < count; ++i) {
      if (!metrics[static_cast<std::size_t>(i)].build_ok) {
        ++summary.builds_failed;
      }
      const runner::ParallelExecutor::BatchJob& job =
          batch[static_cast<std::size_t>(i)];
      const InvariantChecker& checker =
          *checkers[static_cast<std::size_t>(i)];
      ++summary.cases_run;
      if (checker.clean()) {
        std::remove(job.scenario.trace_path.c_str());
        continue;
      }
      FuzzFailure failure;
      failure.seed = job.scenario.seed;
      failure.scenario = job.scenario;
      failure.scenario.observer = nullptr;
      failure.violations = checker.violations();
      failure.trace_path = job.scenario.trace_path;
      summary.failures.push_back(std::move(failure));
    }
    next += count;
    if (progress) progress(summary.cases_run, summary.cases_requested);
  }
  return summary;
}

}  // namespace refer::verify
