#include "verify/invariants.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "analysis/trace_report.hpp"
#include "refer/system.hpp"
#include "refer/validate.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace refer::verify {

namespace {

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void add_count(std::vector<Violation>& out, const char* check,
               std::uint64_t count) {
  if (count == 0) return;
  out.push_back({check, format("%" PRIu64 " occurrence(s)", count)});
}

}  // namespace

void print_violations(const std::vector<Violation>& violations,
                      std::FILE* out) {
  for (const Violation& v : violations) {
    std::fprintf(out, "  %s: %s\n", v.check.c_str(), v.detail.c_str());
  }
}

void InvariantChecker::add(const std::string& check, std::string detail) {
  std::size_t same = 0;
  for (const Violation& v : violations_) {
    if (v.check == check) ++same;
  }
  if (same >= kMaxPerCheck) {
    ++suppressed_;
    return;
  }
  violations_.push_back({check, std::move(detail)});
}

void InvariantChecker::on_run_start(const harness::RunContext& ctx) {
  last_record_t_ = 0;
  ctx.tracer->set_tap(
      [this, &ctx](const sim::TraceRecord& rec) { check_record(ctx, rec); });
}

void InvariantChecker::check_record(const harness::RunContext& ctx,
                                    const sim::TraceRecord& rec) {
  ++records_seen_;
  // Monotone simulator clock: every emission site stamps sim.now(), so a
  // record older than its predecessor (or ahead of the kernel clock)
  // means the event queue executed out of order.
  if (rec.t < last_record_t_) {
    add("clock.monotone",
        format("record at t=%.9f after t=%.9f", rec.t, last_record_t_));
  }
  if (rec.t > ctx.sim->now()) {
    add("clock.ahead",
        format("record stamped t=%.9f but kernel clock is %.9f", rec.t,
               ctx.sim->now()));
  }
  last_record_t_ = rec.t < last_record_t_ ? last_record_t_ : rec.t;

  const auto n = static_cast<long long>(ctx.world->size());
  if (rec.from < -1 || rec.from >= n || rec.to < -1 || rec.to >= n) {
    add("record.node_range",
        format("%s: from=%d to=%d outside world of %lld nodes",
               sim::to_string(rec.event), rec.from, rec.to, n));
  }
  if (rec.bytes > (std::size_t{1} << 24)) {
    add("record.bytes", format("%s: %zu-byte frame",
                               sim::to_string(rec.event), rec.bytes));
  }
  if (rec.hop_index < -1 || rec.alt_index < -1 || rec.nominal_len < -1) {
    add("record.fields",
        format("%s: hop=%d alt=%d nominal=%d", sim::to_string(rec.event),
               rec.hop_index, rec.alt_index, rec.nominal_len));
  }
  if (rec.event == sim::TraceEvent::kFailover && rec.nominal_len >= 0 &&
      (rec.at_label.empty() || rec.dst_label.empty() ||
       rec.next_label.empty())) {
    add("record.failover_labels",
        format("Theorem 3.8 failover at t=%.6f missing labels", rec.t));
  }
  check_app_record(ctx, rec);
}

void InvariantChecker::check_app_record(const harness::RunContext& ctx,
                                        const sim::TraceRecord& rec) {
  // Replays the app tier's registration state machine from its events:
  // keepalive misses accumulate per actuator, a believed-down
  // transition needs at least miss_limit of them (successful keepalives
  // emit nothing, so this is a lower bound, not an exact count), a
  // recovery handshake needs a preceding down, and a believed-down
  // actuator must never actuate.
  switch (rec.event) {
    case sim::TraceEvent::kAppKeepaliveMiss:
      ++app_state_[rec.from].misses;
      break;
    case sim::TraceEvent::kAppActuatorDown: {
      AppActuatorState& st = app_state_[rec.from];
      const int limit =
          ctx.scenario ? ctx.scenario->app_keepalive_miss_limit : 1;
      if (st.down) {
        add("app.double_down",
            format("actuator %d believed down twice at t=%.6f without a "
                   "recovery in between",
                   rec.from, rec.t));
      }
      if (st.misses < limit) {
        add("app.down_without_misses",
            format("actuator %d believed down at t=%.6f after %d misses "
                   "(limit %d)",
                   rec.from, rec.t, st.misses, limit));
      }
      st.down = true;
      break;
    }
    case sim::TraceEvent::kAppActuatorUp: {
      AppActuatorState& st = app_state_[rec.from];
      ++app_ups_seen_;
      if (!st.down) {
        add("app.up_without_down",
            format("actuator %d re-registered at t=%.6f without a "
                   "preceding believed-down",
                   rec.from, rec.t));
      }
      st.down = false;
      st.misses = 0;
      break;
    }
    case sim::TraceEvent::kAppActuate: {
      const auto it = app_state_.find(rec.from);
      if (it != app_state_.end() && it->second.down) {
        add("app.actuate_while_down",
            format("believed-down actuator %d issued a command at t=%.6f",
                   rec.from, rec.t));
      }
      break;
    }
    default:
      break;
  }
}

void InvariantChecker::check_energy(const harness::RunContext& ctx) {
  const sim::EnergyTracker& energy = *ctx.energy;
  // Every charge is a multiple of 0.25 J, so all the sums below are
  // exactly representable doubles (up to ~2^52): the identities hold
  // with == and any difference is a real accounting bug, not rounding.
  const double expected =
      static_cast<double>(energy.tx_packets()) * sim::kTxJoulesPerPacket +
      static_cast<double>(energy.rx_packets()) * sim::kRxJoulesPerPacket;
  if (energy.grand_total() != expected) {
    add("energy.conservation",
        format("buckets hold %.6f J but %" PRIu64 " tx + %" PRIu64
               " rx packets account for %.6f J",
               energy.grand_total(), energy.tx_packets(), energy.rx_packets(),
               expected));
  }
  double per_node = 0;
  for (std::size_t i = 0; i < ctx.world->size(); ++i) {
    const double spent = energy.node_total(i);
    if (spent < 0) {
      add("energy.negative", format("node %zu spent %.6f J", i, spent));
    }
    per_node += spent;
  }
  if (per_node != energy.grand_total()) {
    add("energy.node_ledger",
        format("per-node ledger sums to %.6f J, buckets to %.6f J", per_node,
               energy.grand_total()));
  }

  const sim::ChannelStats& cs = ctx.channel->stats();
  // Receptions are charged atomically with the delivery counters.
  const std::uint64_t receptions =
      cs.unicasts_delivered + cs.broadcast_receptions;
  if (energy.rx_packets() != receptions) {
    add("channel.rx_ledger",
        format("%" PRIu64 " rx charges vs %" PRIu64 " receptions",
               energy.rx_packets(), receptions));
  }
  // Senders are charged when the frame clears the air, so in-flight
  // frames at the horizon and dead-sender rejections leave tx charges
  // at or below the send count -- never above.
  if (energy.tx_packets() > cs.unicasts_sent + cs.broadcasts_sent) {
    add("channel.tx_ledger",
        format("%" PRIu64 " tx charges vs %" PRIu64 " sends",
               energy.tx_packets(), cs.unicasts_sent + cs.broadcasts_sent));
  }
  if (cs.unicasts_delivered + cs.unicasts_failed > cs.unicasts_sent) {
    add("channel.completions",
        format("%" PRIu64 " delivered + %" PRIu64 " failed > %" PRIu64
               " sent",
               cs.unicasts_delivered, cs.unicasts_failed, cs.unicasts_sent));
  }
  if (cs.total_airtime_s < 0) {
    add("channel.airtime", format("%.6f s total airtime", cs.total_airtime_s));
  }
}

void InvariantChecker::check_metrics(const harness::RunContext& ctx,
                                     const harness::RunMetrics& m) {
  (void)ctx;
  if (m.packets_delivered > m.packets_sent) {
    add("metrics.delivery_count",
        format("%" PRIu64 " delivered > %" PRIu64 " sent",
               m.packets_delivered, m.packets_sent));
  }
  if (m.qos_delivered > m.packets_delivered) {
    add("metrics.qos_count",
        format("%" PRIu64 " within QoS > %" PRIu64 " delivered",
               m.qos_delivered, m.packets_delivered));
  }
  if (m.delivery_ratio < 0 || m.delivery_ratio > 1) {
    add("metrics.delivery_ratio", format("%.9f", m.delivery_ratio));
  }
  if (m.qos_throughput_kbps < 0 || m.avg_delay_ms < 0 ||
      m.delay_p95_ms < 0) {
    add("metrics.negative",
        format("throughput=%.3f delay=%.3f p95=%.3f", m.qos_throughput_kbps,
               m.avg_delay_ms, m.delay_p95_ms));
  }
  if (m.total_energy_j != m.comm_energy_j + m.construction_energy_j) {
    add("metrics.energy_split",
        format("total %.6f != comm %.6f + construction %.6f",
               m.total_energy_j, m.comm_energy_j, m.construction_energy_j));
  }
  if (ctx.scenario && ctx.scenario->app_enabled) {
    if (m.app_loops_completed > m.app_loops_started) {
      add("app.loop_count",
          format("%" PRIu64 " completed > %" PRIu64 " started",
                 m.app_loops_completed, m.app_loops_started));
    }
    if (m.app_loops_within_deadline > m.app_loops_completed) {
      add("app.loop_count",
          format("%" PRIu64 " within deadline > %" PRIu64 " completed",
                 m.app_loops_within_deadline, m.app_loops_completed));
    }
    if (m.app_loop_completion_ratio < 0 || m.app_loop_completion_ratio > 1) {
      add("app.completion_ratio", format("%.9f", m.app_loop_completion_ratio));
    }
    if (m.app_actuator_availability < 0 || m.app_actuator_availability > 1) {
      add("app.availability", format("%.9f", m.app_actuator_availability));
    }
    if (m.app_mean_recovery_s < 0 ||
        (m.app_recoveries == 0 && m.app_mean_recovery_s != 0)) {
      add("app.recovery_mean",
          format("%.6f s over %" PRIu64 " recoveries", m.app_mean_recovery_s,
                 m.app_recoveries));
    }
    // Tap-replay cross-check: every recovery the metric counted must
    // have emitted its handshake through the tracer, 1:1.
    if (m.build_ok && m.app_recoveries != app_ups_seen_) {
      add("app.recovery_count",
          format("metrics report %" PRIu64 " recoveries, trace carried %" PRIu64
                 " app_actuator_up handshake(s)",
                 m.app_recoveries, app_ups_seen_));
    }
  }
}

void InvariantChecker::check_topology(const harness::RunContext& ctx) {
  if (!ctx.refer_system) return;
  // Structural invariants only: label validity, the global label<->node
  // bijection, corners bound to actuators.  Completeness / liveness are
  // legitimately violated at the horizon (the last fault-injection set
  // is still down and repairs may be mid-flight), so they stay off.
  core::ValidationOptions options;
  options.require_complete_cells = false;
  options.require_alive_sensors = false;
  for (const std::string& problem : core::validate_topology(
           ctx.refer_system->topology(), *ctx.world, options)) {
    add("topology.structure", problem);
  }
}

void InvariantChecker::check_trace_audit(const harness::RunContext& ctx) {
  if (!ctx.scenario || ctx.scenario->trace_path.empty()) return;
  if (ctx.trace_writer) ctx.trace_writer->flush();
  const analysis::TraceReport report =
      analysis::analyze_trace_file(ctx.scenario->trace_path);
  if (report.lines != records_seen_) {
    add("trace.completeness",
        format("tap saw %" PRIu64 " records, file holds %" PRIu64 " lines",
               records_seen_, report.lines));
  }
  std::vector<Violation> audit;
  add_count(audit, "trace.parse_errors", report.parse_errors);
  add_count(audit, "trace.schema_errors", report.schema_errors);
  add_count(audit, "trace.failover_mismatches", report.failover_mismatches);
  add_count(audit, "trace.path_length_violations",
            report.path_length_violations);
  add_count(audit, "trace.chain_breaks", report.chain_breaks);
  add_count(audit, "trace.arc_violations", report.arc_violations);
  add_count(audit, "trace.regular_mismatches", report.regular_mismatches);
  for (Violation& v : audit) add(v.check, std::move(v.detail));
}

void InvariantChecker::on_run_end(const harness::RunContext& ctx,
                                  const harness::RunMetrics& metrics) {
  ctx.tracer->clear_tap();
  check_energy(ctx);
  check_metrics(ctx, metrics);
  if (metrics.build_ok) check_topology(ctx);
  check_trace_audit(ctx);
  if (suppressed_ > 0) {
    violations_.push_back(
        {"checker.suppressed",
         format("%" PRIu64 " further event-level violations capped",
                suppressed_)});
  }
}

}  // namespace refer::verify
