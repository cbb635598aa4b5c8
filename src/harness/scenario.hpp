// Evaluation scenario description (paper SIV defaults).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace refer::harness {

class RunObserver;  // harness/experiment.hpp

/// Intra-cell routing protocol of the REFER system under test.
///   kGreedy  -- paper SIII-C greedy shortest path over the Theorem 3.8
///               disjoint-route family (the default; every pre-existing
///               figure uses it).
///   kRegular -- Faber-Streib regular all-to-all routing
///               (kautz/regular.hpp): fixed concatenation walks with
///               near-equal per-arc load, Theorem 3.8 routes demoted to
///               fail-over.
/// Baseline systems ignore the policy (they have no Kautz overlay).
enum class RoutingPolicy { kGreedy, kRegular };

[[nodiscard]] constexpr const char* to_string(RoutingPolicy p) noexcept {
  return p == RoutingPolicy::kRegular ? "regular" : "greedy";
}

/// Parses "greedy" / "regular"; false on anything else (`out` untouched).
[[nodiscard]] inline bool parse_routing_policy(const std::string& text,
                                               RoutingPolicy& out) noexcept {
  if (text == "greedy") {
    out = RoutingPolicy::kGreedy;
    return true;
  }
  if (text == "regular") {
    out = RoutingPolicy::kRegular;
    return true;
  }
  return false;
}

/// All knobs of one simulated deployment + workload.  Defaults reproduce
/// the paper's setup scaled for wall-clock speed: 500 m x 500 m, 5
/// actuators (quincunx -> 4 K(2,3) cells), 200 i.i.d. sensors, ranges
/// 100 m / 250 m, random-waypoint speeds U[0,3] m/s, 5 random sources per
/// 10 s round, QoS deadline 0.6 s, TX/RX energy 2 / 0.75 J per packet.
///
/// The paper streams 1 Mbps per source for 1000 s; we default to the
/// same *relative* channel load (~40% of the 2 Mbit/s medium per source)
/// with fewer, larger packets, and a shorter measurement window, so the
/// full 8-figure sweep runs in minutes -- shapes, not absolute numbers,
/// are the reproduction target (DESIGN.md).  Raise measure_s to 900 for
/// the paper-scale duration.
struct Scenario {
  // Deployment.
  double area_side_m = 500;
  int n_actuators = 5;  ///< 5 = the paper's quincunx; >5 = zig-zag strip
  int n_sensors = 200;
  /// Sensors are i.i.d. *around the actuators* (paper SIV): each sensor
  /// lands uniformly in a disc of this radius around a random actuator.
  double sensor_spread_m = 220;
  double sensor_range_m = 100;
  double actuator_range_m = 250;
  double initial_battery_j = 1e9;

  // Mobility (random waypoint).
  bool mobile = true;
  double min_speed_mps = 0.0;
  double max_speed_mps = 3.0;

  // Workload: every round, `sources_per_round` random sensors each send
  // `packets_per_second` packets until the next round.
  int sources_per_round = 5;
  double round_period_s = 10;
  /// 10 pkt/s x 20 kbit = 200 kbit/s per source: enough load that repair
  /// storms and retransmissions cost real airtime under the CSMA medium,
  /// while the base traffic is still comfortably carried -- the regime
  /// where the paper's protocol-level differences dominate.
  double packets_per_second = 10;
  std::size_t packet_bytes = 2500;

  // Timing.
  double warmup_s = 20;
  double measure_s = 100;
  double qos_deadline_s = 0.6;

  // Fault injection: every fault_period_s the previous faulty set is
  // restored and `faulty_nodes` random sensors break down (paper SIV-B).
  int faulty_nodes = 0;
  double fault_period_s = 10;

  /// Link flaps: probability that any individual frame is lost on the
  /// air (sim::ChannelConfig::loss_probability).  0 = perfect links; the
  /// scenario fuzzer (src/verify) uses this to stress Theorem-3.8
  /// fail-over under random loss.
  double loss_probability = 0;

  /// TESTING ONLY -- 0 in production.  Non-zero plants a known bug in the
  /// system under test so the fuzzer / invariant engine can prove it
  /// catches real divergences (src/verify):
  ///   1 = REFER fail-over records a wrong Theorem 3.8 nominal length.
  ///   2 = the app layer emits a spurious actuator-recovery handshake
  ///       (kAppActuatorUp with no believed-down span).
  /// Serialized into results / repro.json so replays reproduce the bug.
  int planted_bug = 0;

  // Closed-loop application layer (src/app): sense -> decide -> actuate
  // on top of whichever routing stack runs.  Off by default so every
  // pre-existing figure reproduces unchanged.
  bool app_enabled = false;
  /// Mean inter-arrival of sensed physical events (Poisson over the
  /// area); each event starts up to a few control loops.
  double app_event_period_s = 10;
  /// A loop completes when the actuation command is back at the sensor
  /// within this budget of the sensing instant.
  double app_loop_deadline_s = 1.0;
  /// Actuator keepalive ping period (supervision tier).
  double app_keepalive_period_s = 5;
  /// Consecutive lapsed keepalives before an actuator is believed down
  /// and its sensors fail over.
  int app_keepalive_miss_limit = 2;
  /// Poisson app-tier actuator breaks: mean rate per actuator (Hz).
  /// 0 = no random breaks.  Breaks hit the actuation process only; the
  /// node keeps routing.
  double app_break_rate_hz = 0;
  /// Downtime of one random break (seconds).
  double app_repair_s = 15;
  /// Scripted fault windows "idx@start+duration;..." with times in
  /// seconds relative to the workload start (app::parse_fault_schedule);
  /// composes with app_break_rate_hz.  Flat string so repro.json stays
  /// nesting-free.
  std::string app_fault_schedule;

  std::uint64_t seed = 1;

  /// Medium-access ablation: true = CSMA local medium sharing (default,
  /// the evaluated model); false = per-sender-only serialisation.
  bool csma = true;

  /// Intra-cell routing protocol of the REFER system (see RoutingPolicy
  /// above).  Greedy is the default so every pre-existing greedy figure
  /// reproduces bit-identically; baselines ignore it.  Serialized into
  /// results + repro JSON (since schema v5 / repro v4) and fuzzed.
  RoutingPolicy routing_policy = RoutingPolicy::kGreedy;

  /// When > 0, the run carries a flight recorder (sim::TelemetryRecorder):
  /// RunMetrics::timeseries holds per-bucket series (throughput, delay
  /// percentiles, queue waits, busy fraction, hot nodes, app-loop QoS,
  /// ...) for buckets of this many seconds across the measurement
  /// window; its qos_kbps series is the within-run QoS decay curve.
  double timeline_bucket_s = 0;

  /// When true (and timeline_bucket_s > 0), the wall-clock phase
  /// profiler (common/phase_profiler.hpp) is enabled and the timeseries
  /// gains per-bucket wall-time attribution (kernel dispatch, medium
  /// scan, routing decide, flooding, spatial query).  Off by default:
  /// wall-clock data is nondeterministic, so it is excluded from the
  /// bit-identity contracts the determinism tests and CI compare.
  bool phase_profile = false;

  /// When non-empty, every radio frame event of the run is written to
  /// this file as JSON lines (sim::JsonlTraceWriter).
  std::string trace_path;

  /// When non-empty, run_repeated / sweep derive a per-job trace_path
  /// `<trace_dir>/<system>_x<x>_rep<rep>.jsonl` for every decomposed
  /// (system, x, seed) job.  The directory must exist.
  std::string trace_dir;

  /// When true, the simulator kernel profiler is attached: per-event-tag
  /// wall-time histograms ("sim.event_us.<tag>") land in the run's
  /// observability snapshot.  Costs two clock reads per event; off by
  /// default so benchmark numbers stay undisturbed.
  bool profile = false;

  /// Optional single-run hook (NOT serialized): run_once invokes the
  /// observer around the simulation with full access to the deployment
  /// internals.  The invariant engine (src/verify) attaches here.  The
  /// observer is used only on the thread executing this scenario's
  /// run_once, so parallel jobs must each carry their own instance.
  RunObserver* observer = nullptr;
};

}  // namespace refer::harness
