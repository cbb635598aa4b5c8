// Flight recorder: allocation-free per-bucket time-series telemetry.
//
// A TelemetryRecorder rides one run's event kernel and turns the
// end-of-run aggregates into *time-resolved* series: the measurement
// window [measure_from, measure_from + window_s] is tiled into buckets
// of Scenario::timeline_bucket_s seconds, and every bucket records
//
//   - workload: packets sent / delivered / QoS-delivered, delivery delay
//     p50/p95 within the bucket, fail-over count;
//   - medium: MAC queue-wait mean/p95 (us) and the channel busy fraction
//     (summed frame airtime per bucket second);
//   - hot spots: the top-K transmitters by airtime rate and the top-K
//     nodes by energy drain rate within the bucket;
//   - kernel: event-queue depth sampled at the bucket boundary;
//   - system: route-cache hit rate (REFER), energy drain rate;
//   - app tier: control loops started / completed-in-deadline, latency
//     mean -- bucketed by *sense* time so fault dips align with their
//     cause;
//   - wall clock: per-phase wall-time deltas (common/phase_profiler.hpp)
//     when phase profiling is on.
//
// Allocation contract (the PR-5 counting-operator-new bar): start()
// preallocates every buffer; the record hooks and the bucket-boundary
// gauge ticks write into flat arrays and allocate NOTHING in steady
// state -- telemetry_test pins this with the global new hook.
//
// Determinism contract: gauge ticks are ordinary kernel events (they
// shift event sequence numbers, so sim.events_executed / peak depth
// differ between timeline-on and timeline-off runs, exactly like the
// profile flag), but they read simulation state without mutating it and
// draw no randomness.  Every deterministic series is bit-identical
// serial vs. parallel; only the phase_wall series (wall clock) is
// exempt.
//
// Bucket-edge semantics: bucket i covers [i*b, (i+1)*b) relative to
// measure_from, except the LAST bucket which closes at window_s
// inclusive -- a delivery landing exactly at the measurement end belongs
// to the last bucket (previously it fell off the ceil(window/b) edge).
// Samples after window_s (the drain period) are dropped from the series
// but counted in late_samples so nothing disappears silently.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/phase_profiler.hpp"
#include "common/stats_registry.hpp"
#include "sim/simulator.hpp"

namespace refer::sim {

class Channel;        // sim/channel.hpp
class EnergyTracker;  // sim/energy.hpp

/// One run's complete per-bucket series; RunMetrics::timeseries and the
/// "timeseries" section of the schema-v4 results JSON.  All per-bucket
/// vectors share the same length (buckets()); the top_* vectors are
/// flattened [bucket * top_k + k] with node -1 in unused slots, and
/// phase_wall_us is flattened [bucket * kPhaseCount + phase] (empty
/// unless phase profiling was on).
struct TimeSeries {
  double bucket_s = 0;  ///< 0 = no telemetry was recorded
  double start_s = 0;   ///< absolute sim time of bucket 0's left edge
  double window_s = 0;  ///< measured window length (Scenario::measure_s)
  int top_k = 0;

  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> qos_delivered;
  /// QoS throughput per bucket: qos_delivered[b] * packet_bytes * 8 /
  /// 1000 / bucket_s, the exact schema-v3 arithmetic, filled at finalize.
  std::vector<double> qos_kbps;
  std::vector<std::uint64_t> failovers;
  std::vector<double> delay_p50_ms;
  std::vector<double> delay_p95_ms;
  std::vector<double> queue_wait_mean_us;
  std::vector<double> queue_wait_p95_us;
  std::vector<double> channel_busy_fraction;
  std::vector<double> energy_rate_w;  ///< joules drained per second
  std::vector<std::uint64_t> event_queue_depth;
  std::vector<double> route_cache_hit_rate;  ///< 0 when no lookups
  std::vector<std::uint64_t> app_loops_started;
  std::vector<std::uint64_t> app_loops_ok;  ///< completed within deadline
  std::vector<double> app_loop_mean_ms;     ///< over loops completed here

  std::vector<std::int32_t> top_airtime_node;
  std::vector<double> top_airtime_rate;  ///< airtime seconds per second
  std::vector<std::int32_t> top_energy_node;
  std::vector<double> top_energy_rate_w;

  std::vector<double> phase_wall_us;  ///< [bucket * kPhaseCount + phase]

  /// Samples whose time fell after window_s (delivered during the drain
  /// period); excluded from every bucket.
  std::uint64_t late_samples = 0;

  [[nodiscard]] std::size_t buckets() const noexcept { return sent.size(); }
};

/// Cumulative gauge values the harness-side source fills at every bucket
/// boundary; the recorder stores per-bucket deltas/rates.
struct GaugeSnapshot {
  double channel_airtime_s = 0;  ///< ChannelStats::total_airtime_s
  double energy_j = 0;           ///< EnergyTracker::grand_total()
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;
};

class TelemetryRecorder {
 public:
  /// Hot-spot slots per bucket (top transmitters / top energy drains).
  static constexpr int kTopK = 3;

  /// Preallocates all series storage and schedules one gauge tick per
  /// bucket boundary on `sim`.  `channel` / `energy` provide the
  /// per-node airtime and battery-drain scans (either may be nullptr --
  /// the corresponding top-K series stays at node -1); `gauges` is
  /// invoked at each boundary to fill cumulative totals (set once here;
  /// the call itself must not allocate).  `n_nodes` sizes the per-node
  /// previous-value tables; `packet_bytes` converts QoS deliveries to
  /// qos_kbps.  The phase profiler in `sim`'s instruments, when enabled,
  /// contributes the per-bucket wall-clock attribution series.
  void start(Simulator& sim, const Channel* channel,
             const EnergyTracker* energy,
             std::function<void(GaugeSnapshot&)> gauges, double measure_from,
             double window_s, double bucket_s, std::size_t n_nodes,
             std::size_t packet_bytes);

  [[nodiscard]] bool active() const noexcept { return bucket_s_ > 0; }

  // ---- hot-path record hooks (allocation-free) ----------------------

  /// A workload packet left its source at `t`.
  void on_send(double t);
  /// A workload packet was delivered at `t` (monotone across calls).
  void on_delivery(double t, double delay_ms, bool qos_ok, int failovers);
  /// A frame waited `us` for its TX slot, requested at `t` (monotone).
  void on_queue_wait(double t, double us);
  /// A control loop was sensed at `t`.
  void on_app_loop_start(double t);
  /// A control loop sensed at `sense_t` completed; bucketed by sense
  /// time (NOT completion time) so dips align with their cause.
  void on_app_loop_done(double sense_t, bool within_deadline,
                        double latency_ms);

  /// Flushes the open percentile cursors and zero-fills untouched
  /// buckets; call once after the run drained, before reading series().
  void finalize();

  [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }

  /// Bucket index for a time offset `rel` = t - start_s, or npos when
  /// the sample falls outside [0, window_s].  Exposed for the
  /// bucket-edge tests: rel == window_s maps to the LAST bucket.
  [[nodiscard]] std::size_t bucket_for_rel(double rel) const noexcept;
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

 private:
  /// Per-stream cursor over a monotone sample time series: percentiles
  /// of the open bucket stream into a scratch histogram that is flushed
  /// (and reset) whenever a later bucket opens.
  struct PercentileCursor {
    Histogram scratch;
    std::size_t open = 0;     ///< bucket the scratch currently covers
    bool touched = false;     ///< any sample since the last flush
  };

  void gauge_tick(std::size_t bucket);
  void flush_delay_cursor(std::size_t up_to);       // [open, up_to)
  void flush_queue_wait_cursor(std::size_t up_to);  // [open, up_to)

  TimeSeries series_;
  Simulator* sim_ = nullptr;
  const Channel* channel_ = nullptr;
  const EnergyTracker* energy_ = nullptr;
  std::function<void(GaugeSnapshot&)> gauges_;

  double bucket_s_ = 0;
  double bits_per_packet_ = 0;
  double start_s_ = 0;
  double window_s_ = 0;
  std::size_t n_buckets_ = 0;

  PercentileCursor delay_cursor_;
  PercentileCursor queue_wait_cursor_;
  std::vector<double> queue_wait_sum_us_;  ///< per bucket
  std::vector<std::uint64_t> queue_waits_;
  std::vector<double> app_latency_sum_ms_;
  std::vector<std::uint64_t> app_done_here_;  ///< completions per bucket

  // Previous cumulative values for per-bucket deltas.
  GaugeSnapshot prev_gauges_;
  std::array<std::uint64_t, kPhaseCount> prev_phase_ns_{};
  std::vector<double> prev_airtime_s_;  ///< per node
  std::vector<double> prev_energy_j_;   ///< per node
};

}  // namespace refer::sim
