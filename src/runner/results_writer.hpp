// Structured results layer: one versioned JSON document per benchmark
// run, so BENCH_*.json perf trajectories are first-class instead of
// scraped ASCII tables.
//
// Schema (version 7; v6 minus the top-level per-job
// "qos_timeline_kbps" array, which duplicated "timeseries.qos_kbps":
// the within-run QoS curve is only in the timeseries section, and a run
// without a timeline carries neither key.  Readers still accept the v3
// key on older documents.)
//
// Schema (version 6; v5 minus the three retired perf switches: the
// scenario object no longer carries the spatial-index, neighbor-cache
// and event-queue toggles.  The grid index and neighbor cache are always
// on and the kernel has one event queue; no toggle ever changed a
// simulated result.)
//
// Schema (version 5; v4 + the routing-policy comparison surface: the
// scenario gains "routing_policy" ("greedy" / "regular"), every metrics
// block gains the fairness series "airtime_gini" / "airtime_max_min" /
// "arc_load_gini" / "arc_load_max_min" plus an "arc_forwards" count
// array on jobs that recorded Kautz arcs (REFER), and aggregate blocks
// gain the matching Summary keys.  v4 documents still parse: every
// addition is a new optional key.
//
// Schema (version 4; v3 + the flight recorder: a "timeseries" object
// per job metrics block when the scenario requested a timeline
// (timeline_bucket_s > 0) -- parallel per-bucket arrays for workload,
// delay percentiles, queue waits, channel busy fraction, energy rate,
// hot nodes, route-cache hit rate, app-loop QoS, plus "phase_total_us"
// / per-bucket "phase_us" wall-clock attribution when phase_profile
// was on -- and the phase_profile scenario flag.  v3 documents (no
// timeseries, no phase_profile) still parse: every addition is a new
// optional key):
//   {
//     "schema_version": 4,
//     "tool": "referbench",
//     "benchmark": "fig04",
//     "title": "...",
//     "git": "<git describe at configure time>",
//     "jobs": 4, "repetitions": 3, "wall_s": 12.3,
//     "scenario": { <every harness::Scenario field, incl. trace_dir
//                    and profile> },
//     "systems": ["REFER", "DaTree", "D-DEAR", "Kautz-overlay"],
//     "jobs_run": [ {"x":.., "system":"REFER", "rep":0, "seed":1,
//                    "wall_ms":.., "metrics": { <every RunMetrics
//                    field, incl. delay_p50/p95/p99_ms>,
//                    "timeseries": {"bucket_s":.., "start_s":..,
//                      "window_s":.., "top_k":3, "late_samples":..,
//                      "sent":[..], "delivered":[..],
//                      "qos_delivered":[..], "qos_kbps":[..],
//                      "delivery_ratio":[..], "failovers":[..],
//                      "delay_p50_ms":[..], "delay_p95_ms":[..],
//                      "queue_wait_mean_us":[..],
//                      "queue_wait_p95_us":[..],
//                      "channel_busy_fraction":[..],
//                      "energy_rate_w":[..], "event_queue_depth":[..],
//                      "route_cache_hit_rate":[..],
//                      "app_loops_started":[..], "app_loops_ok":[..],
//                      "app_loop_mean_ms":[..],
//                      "top_airtime": [[{"node":..,"rate":..},..],..],
//                      "top_energy": [[{"node":..,"rate_w":..},..],..],
//                      "phase_us": {"medium_scan":[..], ...},
//                      "phase_total_us": {"medium_scan":.., ...}},
//                    "observability": [
//                      {"name":"router.failovers","kind":"counter",
//                       "count":17},
//                      {"name":"delivery.delay_ms","kind":"histogram",
//                       "n":..,"sum":..,"min":..,"max":..,
//                       "p50":..,"p95":..,"p99":..}, ... ] }}, ... ],
//     "series": [ {"x_label":"...", "points": [ {"x":..,
//                  "by_system": [ {"system":"REFER",
//                    "qos_throughput_kbps": {"n":..,"mean":..,
//                      "ci95":..,"min":..,"max":..}, ... } ] } ] } ]
//   }
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace refer::runner {

inline constexpr int kResultsSchemaVersion = 7;

/// `git describe --always --dirty` captured when the build was
/// configured ("unknown" outside a git checkout).
[[nodiscard]] const char* git_describe() noexcept;

class ResultsWriter {
 public:
  ResultsWriter();

  void set_tool(std::string tool) { tool_ = std::move(tool); }
  void set_benchmark(std::string name, std::string title = {}) {
    benchmark_ = std::move(name);
    title_ = std::move(title);
  }
  void set_jobs(int jobs) { jobs_ = jobs; }
  void set_repetitions(int repetitions) { repetitions_ = repetitions; }
  void set_wall_s(double wall_s) { wall_s_ = wall_s; }
  void set_scenario(const harness::Scenario& scenario) {
    scenario_ = scenario;
    has_scenario_ = true;
  }

  /// Appends per-run_once job records (deterministic order preserved).
  void add_records(const std::vector<harness::JobRecord>& records);

  /// Appends one aggregated sweep series.
  void add_series(const std::string& x_label,
                  const std::vector<harness::SweepPoint>& points);

  /// Renders the full document (always valid JSON, even when empty).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false when the file cannot be opened,
  /// written or closed.
  bool write(const std::string& path) const;

 private:
  struct Series {
    std::string x_label;
    std::vector<harness::SweepPoint> points;
  };

  std::string tool_ = "referbench";
  std::string benchmark_;
  std::string title_;
  int jobs_ = 1;
  int repetitions_ = 0;
  double wall_s_ = 0;
  bool has_scenario_ = false;
  harness::Scenario scenario_;
  std::vector<harness::JobRecord> records_;
  std::vector<Series> series_;
};

}  // namespace refer::runner
