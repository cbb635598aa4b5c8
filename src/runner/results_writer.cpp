#include "runner/results_writer.hpp"

#include <cstdio>

#include "common/stats.hpp"
#include "runner/json.hpp"

#ifndef REFER_GIT_DESCRIBE
#define REFER_GIT_DESCRIBE "unknown"
#endif

namespace refer::runner {

namespace {

void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.kv("n", s.count());
  w.kv("mean", s.mean());
  w.kv("ci95", s.ci95_half_width());
  w.kv("min", s.min());
  w.kv("max", s.max());
  w.end_object();
}

void write_aggregate(JsonWriter& w, harness::SystemKind kind,
                     const harness::AggregateMetrics& agg) {
  w.begin_object();
  w.kv("system", harness::to_string(kind));
  w.key("qos_throughput_kbps");
  write_summary(w, agg.qos_throughput_kbps);
  w.key("avg_delay_ms");
  write_summary(w, agg.avg_delay_ms);
  w.key("delay_p95_ms");
  write_summary(w, agg.delay_p95_ms);
  w.key("delivery_ratio");
  write_summary(w, agg.delivery_ratio);
  w.key("comm_energy_j");
  write_summary(w, agg.comm_energy_j);
  w.key("construction_energy_j");
  write_summary(w, agg.construction_energy_j);
  w.key("total_energy_j");
  write_summary(w, agg.total_energy_j);
  w.key("app_loop_completion_ratio");
  write_summary(w, agg.app_loop_completion_ratio);
  w.key("app_loop_p95_ms");
  write_summary(w, agg.app_loop_p95_ms);
  w.key("app_actuator_availability");
  write_summary(w, agg.app_actuator_availability);
  w.key("app_mean_recovery_s");
  write_summary(w, agg.app_mean_recovery_s);
  w.key("airtime_gini");
  write_summary(w, agg.airtime_gini);
  w.key("airtime_max_min");
  write_summary(w, agg.airtime_max_min);
  w.key("arc_load_gini");
  write_summary(w, agg.arc_load_gini);
  w.key("arc_load_max_min");
  write_summary(w, agg.arc_load_max_min);
  w.end_object();
}

template <typename T>
void write_number_array(JsonWriter& w, const char* name,
                        const std::vector<T>& values) {
  w.key(name);
  w.begin_array();
  for (const T v : values) w.value(v);
  w.end_array();
}

/// The flight-recorder series as parallel per-bucket arrays, plus the
/// two derived curves every consumer wants (qos_kbps re-derives the
/// legacy v3 qos_timeline_kbps values bit-identically; delivery_ratio
/// is per-bucket delivered/sent).  The wall-clock phase keys exist only
/// when the run had phase profiling on -- they are nondeterministic and
/// stay out of the bit-identity comparisons.
void write_timeseries(JsonWriter& w, const harness::RunMetrics& m) {
  const sim::TimeSeries& ts = m.timeseries;
  w.begin_object();
  w.kv("bucket_s", ts.bucket_s);
  w.kv("start_s", ts.start_s);
  w.kv("window_s", ts.window_s);
  w.kv("top_k", ts.top_k);
  w.kv("late_samples", ts.late_samples);
  write_number_array(w, "sent", ts.sent);
  write_number_array(w, "delivered", ts.delivered);
  write_number_array(w, "qos_delivered", ts.qos_delivered);
  write_number_array(w, "qos_kbps", m.qos_timeline_kbps);
  w.key("delivery_ratio");
  w.begin_array();
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    w.value(ts.sent[b] ? static_cast<double>(ts.delivered[b]) /
                             static_cast<double>(ts.sent[b])
                       : 0.0);
  }
  w.end_array();
  write_number_array(w, "failovers", ts.failovers);
  write_number_array(w, "delay_p50_ms", ts.delay_p50_ms);
  write_number_array(w, "delay_p95_ms", ts.delay_p95_ms);
  write_number_array(w, "queue_wait_mean_us", ts.queue_wait_mean_us);
  write_number_array(w, "queue_wait_p95_us", ts.queue_wait_p95_us);
  write_number_array(w, "channel_busy_fraction", ts.channel_busy_fraction);
  write_number_array(w, "energy_rate_w", ts.energy_rate_w);
  write_number_array(w, "event_queue_depth", ts.event_queue_depth);
  write_number_array(w, "route_cache_hit_rate", ts.route_cache_hit_rate);
  write_number_array(w, "app_loops_started", ts.app_loops_started);
  write_number_array(w, "app_loops_ok", ts.app_loops_ok);
  write_number_array(w, "app_loop_mean_ms", ts.app_loop_mean_ms);
  const auto top_k = static_cast<std::size_t>(ts.top_k);
  w.key("top_airtime");
  w.begin_array();
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    w.begin_array();
    for (std::size_t k = 0; k < top_k; ++k) {
      const std::size_t i = b * top_k + k;
      if (ts.top_airtime_node[i] < 0) break;  // unused tail slots
      w.begin_object();
      w.kv("node", ts.top_airtime_node[i]);
      w.kv("rate", ts.top_airtime_rate[i]);
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  w.key("top_energy");
  w.begin_array();
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    w.begin_array();
    for (std::size_t k = 0; k < top_k; ++k) {
      const std::size_t i = b * top_k + k;
      if (ts.top_energy_node[i] < 0) break;
      w.begin_object();
      w.kv("node", ts.top_energy_node[i]);
      w.kv("rate_w", ts.top_energy_rate_w[i]);
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  if (!ts.phase_wall_us.empty()) {
    w.key("phase_us");
    w.begin_object();
    for (int p = 0; p < kPhaseCount; ++p) {
      w.key(to_string(static_cast<Phase>(p)));
      w.begin_array();
      for (std::size_t b = 0; b < ts.buckets(); ++b) {
        w.value(ts.phase_wall_us[b * static_cast<std::size_t>(kPhaseCount) +
                                 static_cast<std::size_t>(p)]);
      }
      w.end_array();
    }
    w.end_object();
    w.key("phase_total_us");
    w.begin_object();
    for (int p = 0; p < kPhaseCount; ++p) {
      double total = 0;
      for (std::size_t b = 0; b < ts.buckets(); ++b) {
        total += ts.phase_wall_us[b * static_cast<std::size_t>(kPhaseCount) +
                                  static_cast<std::size_t>(p)];
      }
      w.kv(to_string(static_cast<Phase>(p)), total);
    }
    w.end_object();
  }
  w.end_object();
}

void write_metrics(JsonWriter& w, const harness::RunMetrics& m) {
  w.begin_object();
  w.kv("build_ok", m.build_ok);
  w.kv("packets_sent", m.packets_sent);
  w.kv("packets_delivered", m.packets_delivered);
  w.kv("qos_delivered", m.qos_delivered);
  w.kv("qos_throughput_kbps", m.qos_throughput_kbps);
  w.kv("avg_delay_ms", m.avg_delay_ms);
  w.kv("delay_p50_ms", m.delay_p50_ms);
  w.kv("delay_p95_ms", m.delay_p95_ms);
  w.kv("delay_p99_ms", m.delay_p99_ms);
  w.kv("delivery_ratio", m.delivery_ratio);
  w.kv("comm_energy_j", m.comm_energy_j);
  w.kv("construction_energy_j", m.construction_energy_j);
  w.kv("total_energy_j", m.total_energy_j);
  w.kv("app_loops_started", m.app_loops_started);
  w.kv("app_loops_completed", m.app_loops_completed);
  w.kv("app_loops_within_deadline", m.app_loops_within_deadline);
  w.kv("app_loop_p50_ms", m.app_loop_p50_ms);
  w.kv("app_loop_p95_ms", m.app_loop_p95_ms);
  w.kv("app_loop_p99_ms", m.app_loop_p99_ms);
  w.kv("app_loop_completion_ratio", m.app_loop_completion_ratio);
  w.kv("app_actuator_availability", m.app_actuator_availability);
  w.kv("app_recoveries", m.app_recoveries);
  w.kv("app_mean_recovery_s", m.app_mean_recovery_s);
  w.kv("airtime_gini", m.airtime_gini);
  w.kv("airtime_max_min", m.airtime_max_min);
  w.kv("arc_load_gini", m.arc_load_gini);
  w.kv("arc_load_max_min", m.arc_load_max_min);
  if (!m.arc_forwards.empty()) {
    write_number_array(w, "arc_forwards", m.arc_forwards);
  }
  if (!m.qos_timeline_kbps.empty()) {
    w.key("qos_timeline_kbps");
    w.begin_array();
    for (const double v : m.qos_timeline_kbps) w.value(v);
    w.end_array();
  }
  if (m.timeseries.bucket_s > 0) {
    w.key("timeseries");
    write_timeseries(w, m);
  }
  w.key("observability");
  w.begin_array();
  for (const StatsRegistry::Entry& e : m.observability) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("kind", e.is_histogram ? "histogram" : "counter");
    if (e.is_histogram) {
      w.kv("n", e.count);
      w.kv("sum", e.sum);
      w.kv("min", e.min);
      w.kv("max", e.max);
      w.kv("p50", e.p50);
      w.kv("p95", e.p95);
      w.kv("p99", e.p99);
    } else {
      w.kv("count", e.count);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_scenario(JsonWriter& w, const harness::Scenario& sc) {
  w.begin_object();
  w.kv("area_side_m", sc.area_side_m);
  w.kv("n_actuators", sc.n_actuators);
  w.kv("n_sensors", sc.n_sensors);
  w.kv("sensor_spread_m", sc.sensor_spread_m);
  w.kv("sensor_range_m", sc.sensor_range_m);
  w.kv("actuator_range_m", sc.actuator_range_m);
  w.kv("initial_battery_j", sc.initial_battery_j);
  w.kv("mobile", sc.mobile);
  w.kv("min_speed_mps", sc.min_speed_mps);
  w.kv("max_speed_mps", sc.max_speed_mps);
  w.kv("sources_per_round", sc.sources_per_round);
  w.kv("round_period_s", sc.round_period_s);
  w.kv("packets_per_second", sc.packets_per_second);
  w.kv("packet_bytes", sc.packet_bytes);
  w.kv("warmup_s", sc.warmup_s);
  w.kv("measure_s", sc.measure_s);
  w.kv("qos_deadline_s", sc.qos_deadline_s);
  w.kv("faulty_nodes", sc.faulty_nodes);
  w.kv("fault_period_s", sc.fault_period_s);
  w.kv("loss_probability", sc.loss_probability);
  w.kv("planted_bug", sc.planted_bug);
  w.kv("app_enabled", sc.app_enabled);
  w.kv("app_event_period_s", sc.app_event_period_s);
  w.kv("app_loop_deadline_s", sc.app_loop_deadline_s);
  w.kv("app_keepalive_period_s", sc.app_keepalive_period_s);
  w.kv("app_keepalive_miss_limit", sc.app_keepalive_miss_limit);
  w.kv("app_break_rate_hz", sc.app_break_rate_hz);
  w.kv("app_repair_s", sc.app_repair_s);
  w.kv("app_fault_schedule", sc.app_fault_schedule);
  w.kv("seed", sc.seed);
  w.kv("csma", sc.csma);
  w.kv("routing_policy", harness::to_string(sc.routing_policy));
  w.kv("timeline_bucket_s", sc.timeline_bucket_s);
  w.kv("phase_profile", sc.phase_profile);
  w.kv("trace_dir", sc.trace_dir);
  w.kv("profile", sc.profile);
  w.end_object();
}

}  // namespace

const char* git_describe() noexcept { return REFER_GIT_DESCRIBE; }

ResultsWriter::ResultsWriter() = default;

void ResultsWriter::add_records(
    const std::vector<harness::JobRecord>& records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

void ResultsWriter::add_series(
    const std::string& x_label,
    const std::vector<harness::SweepPoint>& points) {
  series_.push_back({x_label, points});
}

std::string ResultsWriter::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", kResultsSchemaVersion);
  w.kv("tool", tool_);
  w.kv("benchmark", benchmark_);
  w.kv("title", title_);
  w.kv("git", git_describe());
  w.kv("jobs", jobs_);
  w.kv("repetitions", repetitions_);
  w.kv("wall_s", wall_s_);
  if (has_scenario_) {
    w.key("scenario");
    write_scenario(w, scenario_);
  }
  w.key("systems");
  w.begin_array();
  for (const harness::SystemKind kind : harness::kAllSystems) {
    w.value(harness::to_string(kind));
  }
  w.end_array();
  w.key("jobs_run");
  w.begin_array();
  for (const harness::JobRecord& r : records_) {
    w.begin_object();
    w.kv("x", r.x);
    w.kv("system", harness::to_string(r.system));
    w.kv("rep", r.rep);
    w.kv("seed", r.seed);
    if (r.policy != harness::RoutingPolicy::kGreedy) {
      w.kv("routing_policy", harness::to_string(r.policy));
    }
    w.kv("wall_ms", r.wall_ms);
    w.key("metrics");
    write_metrics(w, r.metrics);
    w.end_object();
  }
  w.end_array();
  w.key("series");
  w.begin_array();
  for (const Series& series : series_) {
    w.begin_object();
    w.kv("x_label", series.x_label);
    w.key("points");
    w.begin_array();
    for (const harness::SweepPoint& point : series.points) {
      w.begin_object();
      w.kv("x", point.x);
      w.key("by_system");
      w.begin_array();
      for (std::size_t i = 0; i < point.by_system.size(); ++i) {
        write_aggregate(w, harness::kAllSystems[i], point.by_system[i]);
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool ResultsWriter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = to_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace refer::runner
