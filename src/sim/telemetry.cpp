#include "sim/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::sim {

void TelemetryRecorder::start(Simulator& sim, const Channel* channel,
                              const EnergyTracker* energy,
                              std::function<void(GaugeSnapshot&)> gauges,
                              double measure_from, double window_s,
                              double bucket_s, std::size_t n_nodes,
                              std::size_t packet_bytes) {
  assert(bucket_s > 0 && window_s > 0);
  sim_ = &sim;
  channel_ = channel;
  energy_ = energy;
  gauges_ = std::move(gauges);
  bucket_s_ = bucket_s;
  bits_per_packet_ = static_cast<double>(packet_bytes) * 8.0;
  start_s_ = measure_from;
  window_s_ = window_s;
  n_buckets_ = static_cast<std::size_t>(std::ceil(window_s / bucket_s));
  if (n_buckets_ == 0) n_buckets_ = 1;

  const std::size_t n = n_buckets_;
  series_.bucket_s = bucket_s;
  series_.start_s = measure_from;
  series_.window_s = window_s;
  series_.top_k = kTopK;
  series_.sent.assign(n, 0);
  series_.delivered.assign(n, 0);
  series_.qos_delivered.assign(n, 0);
  series_.qos_kbps.assign(n, 0.0);
  series_.failovers.assign(n, 0);
  series_.delay_p50_ms.assign(n, 0.0);
  series_.delay_p95_ms.assign(n, 0.0);
  series_.queue_wait_mean_us.assign(n, 0.0);
  series_.queue_wait_p95_us.assign(n, 0.0);
  series_.channel_busy_fraction.assign(n, 0.0);
  series_.energy_rate_w.assign(n, 0.0);
  series_.event_queue_depth.assign(n, 0);
  series_.route_cache_hit_rate.assign(n, 0.0);
  series_.app_loops_started.assign(n, 0);
  series_.app_loops_ok.assign(n, 0);
  series_.app_loop_mean_ms.assign(n, 0.0);
  series_.top_airtime_node.assign(n * kTopK, -1);
  series_.top_airtime_rate.assign(n * kTopK, 0.0);
  series_.top_energy_node.assign(n * kTopK, -1);
  series_.top_energy_rate_w.assign(n * kTopK, 0.0);
  if (const PhaseProfiler* phases = sim.instruments().phases;
      phases && phases->enabled()) {
    series_.phase_wall_us.assign(n * static_cast<std::size_t>(kPhaseCount),
                                 0.0);
  }
  queue_wait_sum_us_.assign(n, 0.0);
  queue_waits_.assign(n, 0);
  app_latency_sum_ms_.assign(n, 0.0);
  app_done_here_.assign(n, 0);
  prev_airtime_s_.assign(n_nodes, 0.0);
  prev_energy_j_.assign(n_nodes, 0.0);

  // Baseline the cumulative gauges at the window start, then one tick
  // per bucket close.  Ticks read state without mutating it; they are
  // scheduled up front, so the steady-state path never allocates.
  sim_->schedule_tagged(start_s_, "telemetry.tick", [this] {
    if (gauges_) gauges_(prev_gauges_);
    if (channel_) {
      for (std::size_t i = 0; i < prev_airtime_s_.size(); ++i) {
        prev_airtime_s_[i] =
            channel_->node_airtime_s(static_cast<NodeId>(i));
      }
    }
    if (energy_) {
      for (std::size_t i = 0; i < prev_energy_j_.size(); ++i) {
        prev_energy_j_[i] = energy_->node_total(i);
      }
    }
    if (const PhaseProfiler* phases = sim_->instruments().phases) {
      for (int p = 0; p < kPhaseCount; ++p) {
        prev_phase_ns_[static_cast<std::size_t>(p)] =
            phases->total_ns(static_cast<Phase>(p));
      }
    }
  });
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    const double close =
        start_s_ +
        std::min(static_cast<double>(b + 1) * bucket_s_, window_s_);
    sim_->schedule_tagged(close, "telemetry.tick",
                          [this, b] { gauge_tick(b); });
  }
}

std::size_t TelemetryRecorder::bucket_for_rel(double rel) const noexcept {
  if (rel < 0 || rel > window_s_) return npos;
  const auto b = static_cast<std::size_t>(rel / bucket_s_);
  // rel == window_s (a delivery exactly at the measurement end) and any
  // floating-point spill past the last edge land in the last bucket.
  return b >= n_buckets_ ? n_buckets_ - 1 : b;
}

void TelemetryRecorder::on_send(double t) {
  if (!active()) return;
  const std::size_t b = bucket_for_rel(t - start_s_);
  if (b == npos) {
    if (t - start_s_ > window_s_) ++series_.late_samples;
    return;
  }
  ++series_.sent[b];
}

void TelemetryRecorder::flush_delay_cursor(std::size_t up_to) {
  PercentileCursor& c = delay_cursor_;
  if (c.touched && c.open < n_buckets_) {
    series_.delay_p50_ms[c.open] = c.scratch.quantile(0.50);
    series_.delay_p95_ms[c.open] = c.scratch.quantile(0.95);
    c.scratch.reset();
    c.touched = false;
  }
  c.open = up_to;
}

void TelemetryRecorder::flush_queue_wait_cursor(std::size_t up_to) {
  PercentileCursor& c = queue_wait_cursor_;
  if (c.touched && c.open < n_buckets_) {
    series_.queue_wait_p95_us[c.open] = c.scratch.quantile(0.95);
    c.scratch.reset();
    c.touched = false;
  }
  c.open = up_to;
}

void TelemetryRecorder::on_delivery(double t, double delay_ms, bool qos_ok,
                                    int failovers) {
  if (!active()) return;
  const std::size_t b = bucket_for_rel(t - start_s_);
  if (b == npos) {
    if (t - start_s_ > window_s_) ++series_.late_samples;
    return;
  }
  ++series_.delivered[b];
  if (qos_ok) ++series_.qos_delivered[b];
  series_.failovers[b] += static_cast<std::uint64_t>(std::max(0, failovers));
  // Deliveries arrive in sim-time order, so a sample for a later bucket
  // closes the open one (percentiles flush once per bucket, not per
  // sample).
  assert(b >= delay_cursor_.open);
  if (b != delay_cursor_.open) flush_delay_cursor(b);
  delay_cursor_.scratch.record(delay_ms);
  delay_cursor_.touched = true;
}

void TelemetryRecorder::on_queue_wait(double t, double us) {
  if (!active()) return;
  const std::size_t b = bucket_for_rel(t - start_s_);
  if (b == npos) {
    if (t - start_s_ > window_s_) ++series_.late_samples;
    return;
  }
  queue_wait_sum_us_[b] += us;
  ++queue_waits_[b];
  assert(b >= queue_wait_cursor_.open);
  if (b != queue_wait_cursor_.open) flush_queue_wait_cursor(b);
  queue_wait_cursor_.scratch.record(us);
  queue_wait_cursor_.touched = true;
}

void TelemetryRecorder::on_app_loop_start(double t) {
  if (!active()) return;
  const std::size_t b = bucket_for_rel(t - start_s_);
  if (b == npos) return;
  ++series_.app_loops_started[b];
}

void TelemetryRecorder::on_app_loop_done(double sense_t, bool within_deadline,
                                         double latency_ms) {
  if (!active()) return;
  // Bucketed by sense time: completions of loops sensed in bucket b
  // count toward b even when they finish later, so a fault window's
  // loop failures dip exactly the buckets that overlap the fault.
  // Sense times across loops are NOT monotone at completion, hence
  // plain sum/count arrays instead of a percentile cursor.
  const std::size_t b = bucket_for_rel(sense_t - start_s_);
  if (b == npos) return;
  if (within_deadline) ++series_.app_loops_ok[b];
  app_latency_sum_ms_[b] += latency_ms;
  ++app_done_here_[b];
}

void TelemetryRecorder::gauge_tick(std::size_t bucket) {
  const double span =
      std::min(window_s_ - static_cast<double>(bucket) * bucket_s_,
               bucket_s_);
  GaugeSnapshot cur;
  if (gauges_) gauges_(cur);
  series_.channel_busy_fraction[bucket] =
      (cur.channel_airtime_s - prev_gauges_.channel_airtime_s) / span;
  series_.energy_rate_w[bucket] =
      (cur.energy_j - prev_gauges_.energy_j) / span;
  const std::uint64_t dh = cur.route_cache_hits - prev_gauges_.route_cache_hits;
  const std::uint64_t dm =
      cur.route_cache_misses - prev_gauges_.route_cache_misses;
  series_.route_cache_hit_rate[bucket] =
      (dh + dm) ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                : 0.0;
  series_.event_queue_depth[bucket] = sim_->pending();
  prev_gauges_ = cur;

  // Top-K scans: one pass over the per-node tables, small insertion
  // sort into the K slots.  No allocation.
  const std::size_t base = bucket * static_cast<std::size_t>(kTopK);
  auto top_insert = [](std::int32_t* nodes, double* rates, std::int32_t node,
                       double rate) {
    for (int k = 0; k < kTopK; ++k) {
      if (rate > rates[k]) {
        for (int j = kTopK - 1; j > k; --j) {
          rates[j] = rates[j - 1];
          nodes[j] = nodes[j - 1];
        }
        rates[k] = rate;
        nodes[k] = node;
        return;
      }
    }
  };
  if (channel_) {
    for (std::size_t i = 0; i < prev_airtime_s_.size(); ++i) {
      const double cur_air = channel_->node_airtime_s(static_cast<NodeId>(i));
      const double rate = (cur_air - prev_airtime_s_[i]) / span;
      prev_airtime_s_[i] = cur_air;
      if (rate > 0) {
        top_insert(&series_.top_airtime_node[base],
                   &series_.top_airtime_rate[base],
                   static_cast<std::int32_t>(i), rate);
      }
    }
  }
  if (energy_) {
    for (std::size_t i = 0; i < prev_energy_j_.size(); ++i) {
      const double cur_j = energy_->node_total(i);
      const double rate = (cur_j - prev_energy_j_[i]) / span;
      prev_energy_j_[i] = cur_j;
      if (rate > 0) {
        top_insert(&series_.top_energy_node[base],
                   &series_.top_energy_rate_w[base],
                   static_cast<std::int32_t>(i), rate);
      }
    }
  }
  const PhaseProfiler* phases = sim_->instruments().phases;
  if (!series_.phase_wall_us.empty() && phases) {
    for (int p = 0; p < kPhaseCount; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      const std::uint64_t ns = phases->total_ns(static_cast<Phase>(p));
      series_.phase_wall_us[bucket * static_cast<std::size_t>(kPhaseCount) +
                            idx] =
          static_cast<double>(ns - prev_phase_ns_[idx]) / 1000.0;
      prev_phase_ns_[idx] = ns;
    }
  }
}

void TelemetryRecorder::finalize() {
  if (!active()) return;
  // QoS throughput and queue-wait means from the per-bucket counts;
  // percentile cursors flush their open bucket.
  flush_delay_cursor(n_buckets_);
  flush_queue_wait_cursor(n_buckets_);
  for (std::size_t b = 0; b < n_buckets_; ++b) {
    series_.qos_kbps[b] = static_cast<double>(series_.qos_delivered[b]) *
                          bits_per_packet_ / 1000.0 / bucket_s_;
    if (queue_waits_[b]) {
      series_.queue_wait_mean_us[b] =
          queue_wait_sum_us_[b] / static_cast<double>(queue_waits_[b]);
    }
    if (app_done_here_[b]) {
      series_.app_loop_mean_ms[b] =
          app_latency_sum_ms_[b] / static_cast<double>(app_done_here_[b]);
    }
  }
}

}  // namespace refer::sim
