// The experiment driver: builds a deployment from a Scenario, runs one of
// the four systems under the paper's workload + fault model, and collects
// RunMetrics.  Sweeps aggregate several seeds into 95% CIs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/metrics.hpp"
#include "harness/scenario.hpp"
#include "sim/spatial_index.hpp"  // sim::NodeId

namespace refer::sim {
class Simulator;
class World;
class Channel;
class EnergyTracker;
class Tracer;
class JsonlTraceWriter;
}  // namespace refer::sim

namespace refer::core {
class ReferSystem;
}  // namespace refer::core

namespace refer {
class StatsRegistry;  // common/stats_registry.hpp
}  // namespace refer

namespace refer::harness {

/// The four evaluated systems (paper SIV).
enum class SystemKind { kRefer, kDaTree, kDDear, kKautzOverlay };

[[nodiscard]] const char* to_string(SystemKind kind) noexcept;
inline constexpr SystemKind kAllSystems[] = {
    SystemKind::kRefer, SystemKind::kDaTree, SystemKind::kDDear,
    SystemKind::kKautzOverlay};

/// Read-only view into a live deployment, handed to a RunObserver.  All
/// pointers outlive the observer callbacks but NOT the run_once call
/// that produced them.  `refer_system` is null for non-REFER systems.
struct RunContext {
  SystemKind kind = SystemKind::kRefer;
  const Scenario* scenario = nullptr;
  sim::Simulator* sim = nullptr;
  sim::World* world = nullptr;
  sim::Channel* channel = nullptr;
  sim::EnergyTracker* energy = nullptr;
  sim::Tracer* tracer = nullptr;
  /// The run's JSONL writer when Scenario::trace_path is set (flush it
  /// before reading the file back mid-run); null otherwise.
  sim::JsonlTraceWriter* trace_writer = nullptr;
  StatsRegistry* stats = nullptr;
  core::ReferSystem* refer_system = nullptr;
  const std::vector<sim::NodeId>* actuators = nullptr;
  const std::vector<sim::NodeId>* sensors = nullptr;
};

/// Single-run hook around run_once (Scenario::observer).  on_run_start
/// fires after the deployment is wired but before construction begins
/// (attach tracer taps here); on_run_end fires after the metrics are
/// collected, while the whole deployment is still alive.  Observers are
/// single-run-local, like the Tracer: one instance per concurrent job.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void on_run_start(const RunContext& ctx) { (void)ctx; }
  virtual void on_run_end(const RunContext& ctx, const RunMetrics& metrics) {
    (void)ctx;
    (void)metrics;
  }
};

/// Runs one system once under the scenario (seed comes from the
/// scenario).  Deterministic: same scenario -> same metrics.
[[nodiscard]] RunMetrics run_once(SystemKind kind, const Scenario& scenario);

/// Aggregated metrics of several seeds.
struct AggregateMetrics {
  Summary qos_throughput_kbps;
  Summary avg_delay_ms;
  Summary delay_p95_ms;
  Summary delivery_ratio;
  Summary comm_energy_j;
  Summary construction_energy_j;
  Summary total_energy_j;
  // Closed-loop app tier; only fed for Scenario::app_enabled jobs (n=0
  // otherwise, so plain figure benches stay unchanged).
  Summary app_loop_completion_ratio;
  Summary app_loop_p95_ms;
  Summary app_actuator_availability;
  Summary app_mean_recovery_s;
  // Load-fairness series (schema v5; RunMetrics::airtime_gini etc.).
  // Arc-load entries are only fed by jobs that recorded Kautz arcs
  // (REFER), so baseline aggregates stay n=0 there.
  Summary airtime_gini;
  Summary airtime_max_min;
  Summary arc_load_gini;
  Summary arc_load_max_min;
};

/// One decomposed unit of an experiment: a single run_once call.  The
/// parallel executor (src/runner) hands these to a results sink in
/// deterministic order so JSON exports are reproducible run-to-run.
struct JobRecord {
  double x = 0;  ///< sweep x value (or run_repeated's explicit x, else 0)
  SystemKind system = SystemKind::kRefer;
  int rep = 0;            ///< repetition index within the (x, system) group
  std::uint64_t seed = 0; ///< the scenario seed the job actually ran with
  /// The routing policy the job's scenario ran with; serialized into the
  /// jobs_run record only when non-default, so two-policy documents stay
  /// self-describing while greedy-only ones are byte-stable.
  RoutingPolicy policy = RoutingPolicy::kGreedy;
  double wall_ms = 0;     ///< wall-clock cost of this job
  RunMetrics metrics;
};

/// Invoked once per job, in deterministic (x, system, rep) order,
/// regardless of how many worker threads executed the jobs.
using JobSink = std::function<void(const JobRecord&)>;

/// Runs `repetitions` seeds (scenario.seed + i) and aggregates.
///
/// `jobs` > 1 executes the repetitions on a runner::ThreadPool; results
/// are aggregated in the same order as the serial path, so the returned
/// AggregateMetrics is bit-identical for any job count (run_once is
/// deterministic and uses no global random state).
/// `x` only labels the emitted JobRecords (e.g. the offered-load value
/// of a single-system comparison point); it does not affect the runs.
[[nodiscard]] AggregateMetrics run_repeated(SystemKind kind,
                                            Scenario scenario,
                                            int repetitions, int jobs = 1,
                                            const JobSink& sink = {},
                                            double x = 0);

/// One point of a figure: x value plus per-system aggregates.
struct SweepPoint {
  double x = 0;
  std::vector<AggregateMetrics> by_system;  // indexed like kAllSystems
};

/// Sweeps a scenario parameter: `configure(scenario, x)` mutates the base
/// scenario for each x value; every system runs `repetitions` seeds.
///
/// `jobs` > 1 decomposes the sweep into independent (system, x, seed)
/// jobs on a runner::ThreadPool.  Aggregation order matches the serial
/// path exactly (bit-identical results for any job count).  `configure`
/// is only called on the submitting thread and must be a pure function
/// of (scenario, x).
[[nodiscard]] std::vector<SweepPoint> sweep(
    Scenario base, const std::vector<double>& xs,
    const std::function<void(Scenario&, double)>& configure,
    int repetitions, int jobs = 1, const JobSink& sink = {});

/// Renders a paper-style series table: one row per x value, one column
/// per system, cells "mean +- ci".
void print_series_table(const std::string& title, const std::string& x_label,
                        const std::string& y_label,
                        const std::vector<SweepPoint>& points,
                        const std::function<Summary(
                            const AggregateMetrics&)>& select);

/// Writes the same series as CSV (x, then mean/ci per system) for
/// plotting; returns false when the file cannot be opened, written or
/// closed.
bool write_series_csv(const std::string& path, const std::string& x_label,
                      const std::vector<SweepPoint>& points,
                      const std::function<Summary(
                          const AggregateMetrics&)>& select);

}  // namespace refer::harness
