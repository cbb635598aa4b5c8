// Metrics of one simulation run, matching the paper's three evaluation
// quantities (SIV): QoS-guaranteed throughput, average delay of
// QoS-guaranteed data, and energy consumed in communication /
// topology construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats_registry.hpp"
#include "sim/telemetry.hpp"

namespace refer::harness {

struct RunMetrics {
  // Workload accounting.
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t qos_delivered = 0;  ///< delivered within the QoS deadline

  /// "Throughput": QoS-guaranteed data received by actuators, kbit/s
  /// (paper Figs. 4, 7).
  double qos_throughput_kbps = 0;
  /// Mean delay of QoS-guaranteed packets, ms (paper Figs. 6, 8).
  double avg_delay_ms = 0;
  /// Delay distribution of *all delivered* packets, ms: the real-time
  /// tail the QoS-only mean hides.
  double delay_p50_ms = 0;
  double delay_p95_ms = 0;
  double delay_p99_ms = 0;
  /// Fraction of sent packets delivered at all.
  double delivery_ratio = 0;

  // Energy (J), cumulative over the run (paper Figs. 5, 9, 10, 11).
  double comm_energy_j = 0;          ///< data + maintenance
  double construction_energy_j = 0;  ///< topology construction
  double total_energy_j = 0;

  // Fairness of the load distribution (Scenario::routing_policy
  // comparison surface; schema v5).  Airtime fairness spans every node
  // of the deployment (zeros included -- an idle node is unfairness);
  // arc-load fairness spans the Kautz arcs the REFER router actually
  // forwarded on, and stays 0 for systems without a Kautz overlay.
  double airtime_gini = 0;
  double airtime_max_min = 0;  ///< max/min over nodes with airtime > 0
  double arc_load_gini = 0;
  double arc_load_max_min = 0;
  /// Successful forwards per Kautz arc, indexed
  /// label.to_index(d) * d + out-digit rank (kautz/regular.hpp explains
  /// the arc space).  Empty for non-REFER systems; serialized only when
  /// non-empty.
  std::vector<std::uint64_t> arc_forwards;

  /// The run's full flight-recorder series (sim/telemetry.hpp);
  /// bucket_s == 0 when the scenario did not request a timeline.
  /// Serialized as the "timeseries" section of the schema-v4 results
  /// JSON.
  sim::TimeSeries timeseries;

  // Closed-loop application layer (Scenario::app_enabled; all zeros
  // when the app tier is off).  A loop: event sensed -> report reaches
  // a live actuator -> actuation command back at the sensor.
  std::uint64_t app_loops_started = 0;  ///< sensed in the measure window
  std::uint64_t app_loops_completed = 0;  ///< command delivered (even late)
  std::uint64_t app_loops_within_deadline = 0;
  /// Loop latency percentiles (ms) over completed counted loops.
  double app_loop_p50_ms = 0;
  double app_loop_p95_ms = 0;
  double app_loop_p99_ms = 0;
  /// app_loops_within_deadline / app_loops_started.
  double app_loop_completion_ratio = 0;
  /// 1 - broken actuator-seconds / (n_actuators * measure_s), an exact
  /// integral of the app fault schedule over the measurement window.
  double app_actuator_availability = 0;
  /// Believed-down -> re-registered spans observed, and their mean
  /// length (keepalive-lapse detection to the recovery handshake).
  std::uint64_t app_recoveries = 0;
  double app_mean_recovery_s = 0;

  /// Observability snapshot: every counter and histogram the run's
  /// StatsRegistry collected (router stats, drop reasons, channel queue
  /// waits, kernel profile, peak queue depth), sorted by name.  Exported
  /// as the "observability" section of the results JSON (schema v2).
  std::vector<StatsRegistry::Entry> observability;

  bool build_ok = false;
};

}  // namespace refer::harness
