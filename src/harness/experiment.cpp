#include "harness/experiment.hpp"

#include "common/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iterator>
#include <memory>

#include "app/control_loop.hpp"
#include "baselines/datree.hpp"
#include "baselines/ddear.hpp"
#include "baselines/kautz_overlay.hpp"
#include "common/logging.hpp"
#include "net/flooding.hpp"
#include "refer/system.hpp"
#include "runner/thread_pool.hpp"
#include "sim/channel.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"

namespace refer::harness {

const char* to_string(SystemKind kind) noexcept {
  switch (kind) {
    case SystemKind::kRefer: return "REFER";
    case SystemKind::kDaTree: return "DaTree";
    case SystemKind::kDDear: return "D-DEAR";
    case SystemKind::kKautzOverlay: return "Kautz-overlay";
  }
  return "?";
}

namespace {

using baselines::Delivery;
using baselines::WsanSystem;
using sim::NodeId;

/// Adapts the REFER facade to the common WsanSystem interface.
class ReferAdapter final : public WsanSystem {
 public:
  ReferAdapter(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
               sim::EnergyTracker& energy, Rng rng, core::ReferConfig config)
      : system_(sim, world, channel, energy, rng, config) {}

  void build(std::function<void(bool)> done) override {
    system_.build(std::move(done));
  }

  void send_event(NodeId src, std::size_t bytes,
                  std::function<void(const Delivery&)> done) override {
    system_.send_to_actuator(
        src, bytes, [done = std::move(done)](const core::DeliveryReport& r) {
          Delivery d;
          d.delivered = r.delivered;
          d.delay_s = r.delay_s;
          d.physical_hops = r.physical_hops;
          d.kautz_hops = r.kautz_hops;
          d.failovers = r.failovers;
          d.actuator = r.final_node;
          d.packet_id = r.packet_id;
          done(d);
        });
  }

  [[nodiscard]] const char* name() const override { return "REFER"; }

  [[nodiscard]] core::ReferSystem* refer_system() noexcept override {
    return &system_;
  }

  void export_stats(StatsRegistry& registry) const override {
    const core::ReferRouter::Stats& s = system_.router().stats();
    registry.counter("router.packets_sent").set(s.packets_sent);
    registry.counter("router.packets_delivered").set(s.packets_delivered);
    registry.counter("router.packets_dropped").set(s.packets_dropped);
    registry.counter("router.failovers").set(s.failovers);
    registry.counter("router.route_gen_floods").set(s.route_gen_floods);
    registry.counter("router.relays_used").set(s.relays_used);
    registry.counter("router.can_hops").set(s.can_hops);
    // Regular-policy walk derivations: only exported when the policy
    // actually ran, so greedy observability snapshots stay byte-stable.
    if (s.regular_walks > 0) {
      registry.counter("router.regular_walks").set(s.regular_walks);
    }
    const kautz::RouteCache& rc = system_.router().route_cache();
    registry.counter("router.route_cache_hits").set(rc.hits());
    registry.counter("router.route_cache_misses").set(rc.misses());
    for (std::size_t i = 0; i < s.drops_by_reason.size(); ++i) {
      if (s.drops_by_reason[i] == 0) continue;
      registry
          .counter(std::string("router.drop.") +
                   sim::to_string(static_cast<sim::DropReason>(i)))
          .set(s.drops_by_reason[i]);
    }
  }

 private:
  core::ReferSystem system_;
};

/// The run's observers and the simulator that carries them.  Filling
/// the simulator's Instruments here, in Deployment's base, completes the
/// context before any layer is built on the simulator (Channel registers
/// "channel.queue_wait_us" at construction), and the observers outlive
/// every reader.
struct Observers {
  explicit Observers(const Scenario& sc) {
    // Wall-clock phase attribution: always in the context (a disabled
    // profiler is one branch per scope), enabled only on request -- the
    // numbers are nondeterministic and stay out of the bit-identity
    // contracts.
    phases.set_enabled(sc.phase_profile);
    if (!sc.trace_path.empty()) {
      trace_writer = std::make_unique<sim::JsonlTraceWriter>(sc.trace_path);
      tracer.set_sink(std::ref(*trace_writer));
    }
    sim::Instruments& in = sim.instruments();
    in.tracer = &tracer;
    in.stats = &stats;
    in.phases = &phases;
    in.telemetry = &telemetry;
    in.profile_events = sc.profile;
  }

  sim::Tracer tracer;
  StatsRegistry stats;
  PhaseProfiler phases;
  sim::TelemetryRecorder telemetry;  ///< started only for a timeline
  std::unique_ptr<sim::JsonlTraceWriter> trace_writer;
  sim::Simulator sim;
};

/// One fully wired deployment.
struct Deployment : Observers {
  explicit Deployment(const Scenario& sc)
      : Observers(sc),
        scenario(sc),
        rng(sc.seed),
        world({{0, 0}, {sc.area_side_m, sc.area_side_m}}, sim),
        channel(sim, world, energy, Rng(sc.seed ^ 0xC0FFEE),
                sim::ChannelConfig{
                    .loss_probability = sc.loss_probability,
                    .mac = sc.csma ? sim::MacMode::kCsma
                                   : sim::MacMode::kNullMac}),
        flooder(sim, world, channel) {
    place_actuators();
    place_sensors();
    energy.resize(world.size());
    energy.set_initial_battery(sc.initial_battery_j);
  }

  void place_actuators() {
    const double side = scenario.area_side_m;
    if (scenario.n_actuators == 5) {
      // The paper's quincunx: 4 inner-square corners + centre = 4 cells.
      for (const Point p :
           {Point{0.25 * side, 0.25 * side}, Point{0.75 * side, 0.25 * side},
            Point{0.25 * side, 0.75 * side}, Point{0.75 * side, 0.75 * side},
            Point{0.50 * side, 0.50 * side}}) {
        actuators.push_back(
            world.add_actuator(p, scenario.actuator_range_m));
      }
      return;
    }
    // General count: a zig-zag strip across the middle band; consecutive
    // and skip-one actuators stay within actuator range, and the strip
    // triangulation is always 3-colourable.
    const int n = scenario.n_actuators;
    const double dx =
        std::min(scenario.actuator_range_m * 0.45,
                 0.8 * side / std::max(1, n - 1));
    const double x0 = (side - dx * (n - 1)) / 2;
    for (int i = 0; i < n; ++i) {
      const double y = (i % 2 ? 0.62 : 0.38) * side;
      actuators.push_back(world.add_actuator({x0 + dx * i, y},
                                             scenario.actuator_range_m));
    }
  }

  void place_sensors() {
    const Rect area{{0, 0}, {scenario.area_side_m, scenario.area_side_m}};
    for (int i = 0; i < scenario.n_sensors; ++i) {
      // I.i.d. around a uniformly chosen actuator (paper SIV): uniform in
      // a disc of radius sensor_spread_m, clamped to the area.
      const Point anchor = world.position(
          actuators[rng.below(actuators.size())]);
      const double angle = rng.uniform(0, 2 * 3.14159265358979323846);
      const double radius =
          scenario.sensor_spread_m * std::sqrt(rng.uniform());
      const Point p = clamp(
          {anchor.x + radius * std::cos(angle),
           anchor.y + radius * std::sin(angle)},
          area);
      if (scenario.mobile) {
        sensors.push_back(world.add_sensor(p, scenario.sensor_range_m,
                                           scenario.min_speed_mps,
                                           scenario.max_speed_mps,
                                           rng.split()));
      } else {
        sensors.push_back(
            world.add_static_sensor(p, scenario.sensor_range_m));
      }
    }
  }

  std::unique_ptr<WsanSystem> make_system(SystemKind kind) {
    switch (kind) {
      case SystemKind::kRefer: {
        core::ReferConfig config;
        // Path queries reach one sensor hop, whatever the sensor range.
        config.embedding.query_tx_range = scenario.sensor_range_m;
        config.router.planted_bug = scenario.planted_bug;
        config.router.policy = scenario.routing_policy == RoutingPolicy::kRegular
                                   ? core::RoutingPolicy::kRegular
                                   : core::RoutingPolicy::kGreedy;
        return std::make_unique<ReferAdapter>(
            sim, world, channel, energy, Rng(scenario.seed ^ 0x5EED), config);
      }
      case SystemKind::kDaTree:
        return std::make_unique<baselines::DaTree>(sim, world, channel,
                                                   flooder);
      case SystemKind::kDDear:
        return std::make_unique<baselines::DDear>(sim, world, channel,
                                                  flooder, energy);
      case SystemKind::kKautzOverlay:
        return std::make_unique<baselines::KautzOverlay>(
            sim, world, channel, flooder, Rng(scenario.seed ^ 0x0E1A));
    }
    return nullptr;
  }

  Scenario scenario;
  Rng rng;
  sim::World world;
  sim::EnergyTracker energy;
  sim::Channel channel;
  net::Flooder flooder;
  std::vector<NodeId> actuators;
  std::vector<NodeId> sensors;
};

/// Workload + fault-injection driver around one system instance.
class Driver {
 public:
  Driver(Deployment& dep, WsanSystem& system)
      : dep_(&dep),
        system_(&system),
        delay_ms_(&dep.stats.histogram("delivery.delay_ms")),
        kautz_hops_(&dep.stats.histogram("delivery.kautz_hops")),
        physical_hops_(&dep.stats.histogram("delivery.physical_hops")),
        failovers_(&dep.stats.histogram("delivery.failovers")) {}

  RunMetrics run() {
    RunMetrics metrics;
    bool built = false, ok = false;
    system_->build([&](bool r) {
      built = true;
      ok = r;
    });
    // Give construction up to 300 simulated seconds.
    for (int i = 0; i < 60 && !built; ++i) {
      dep_->sim.run_until(dep_->sim.now() + 5.0);
    }
    metrics.build_ok = built && ok;
    if (!metrics.build_ok) return metrics;

    const Scenario& sc = dep_->scenario;
    t0_ = dep_->sim.now();
    measure_from_ = t0_ + sc.warmup_s;
    measure_to_ = measure_from_ + sc.measure_s;
    if (sc.timeline_bucket_s > 0) {
      // The flight recorder: preallocates every series buffer and
      // schedules one gauge tick per bucket boundary.  The gauge source
      // closes over the deployment; it is installed once here and never
      // allocates when invoked.
      dep_->telemetry.start(
          dep_->sim, &dep_->channel, &dep_->energy,
          [this](sim::GaugeSnapshot& g) {
            g.channel_airtime_s = dep_->channel.stats().total_airtime_s;
            g.energy_j = dep_->energy.grand_total();
            if (core::ReferSystem* rs = system_->refer_system()) {
              const kautz::RouteCache& rc = rs->router().route_cache();
              g.route_cache_hits = rc.hits();
              g.route_cache_misses = rc.misses();
            }
          },
          measure_from_, sc.measure_s, sc.timeline_bucket_s,
          dep_->world.size(), sc.packet_bytes);
    }

    dep_->sim.schedule_at(measure_from_, [this] {
      comm_at_start_ = dep_->energy.communication_total();
    });
    schedule_round(t0_);
    if (sc.faulty_nodes > 0) schedule_faults(t0_ + sc.fault_period_s);
    // The closed-loop app tier rides alongside the base workload; its
    // uplinks go through the same send_event path but are counted in the
    // app_* metrics, not the one-way QoS counters.
    std::unique_ptr<app::ControlLoopEngine> app_engine;
    if (sc.app_enabled) {
      app_engine = std::make_unique<app::ControlLoopEngine>(
          sc, dep_->sim, dep_->world, dep_->channel, *system_,
          dep_->actuators, dep_->sensors);
      app_engine->start(t0_, measure_from_, measure_to_);
    }

    dep_->sim.run_until(measure_to_ + 2.0);  // drain in-flight packets

    metrics.packets_sent = sent_;
    metrics.packets_delivered = delivered_;
    metrics.qos_delivered = qos_delivered_;
    metrics.qos_throughput_kbps =
        static_cast<double>(qos_delivered_) *
        static_cast<double>(sc.packet_bytes) * 8.0 / 1000.0 / sc.measure_s;
    metrics.avg_delay_ms =
        qos_delivered_ ? delay_sum_s_ / static_cast<double>(qos_delivered_) *
                             1000.0
                       : 0.0;
    metrics.delay_p50_ms = percentile(all_delays_ms_, 50);
    metrics.delay_p95_ms = percentile(all_delays_ms_, 95);
    metrics.delay_p99_ms = percentile(all_delays_ms_, 99);
    if (dep_->telemetry.active()) {
      dep_->telemetry.finalize();
      metrics.timeseries = dep_->telemetry.series();
    }
    metrics.delivery_ratio =
        sent_ ? static_cast<double>(delivered_) / static_cast<double>(sent_)
              : 0.0;
    if (app_engine) {
      const app::AppMetrics am = app_engine->finalize();
      metrics.app_loops_started = am.loops_started;
      metrics.app_loops_completed = am.loops_completed;
      metrics.app_loops_within_deadline = am.loops_within_deadline;
      metrics.app_loop_p50_ms = am.loop_p50_ms;
      metrics.app_loop_p95_ms = am.loop_p95_ms;
      metrics.app_loop_p99_ms = am.loop_p99_ms;
      metrics.app_loop_completion_ratio = am.loop_completion_ratio;
      metrics.app_actuator_availability = am.actuator_availability;
      metrics.app_recoveries = am.recoveries;
      metrics.app_mean_recovery_s = am.mean_recovery_s;
      app_engine->export_stats(dep_->stats);
    }
    metrics.comm_energy_j = dep_->energy.communication_total() - comm_at_start_;
    metrics.construction_energy_j = dep_->energy.construction_total();
    metrics.total_energy_j =
        metrics.comm_energy_j + metrics.construction_energy_j;

    // Observability snapshot: kernel, channel and system counters join
    // the streamed histograms collected during the run.
    StatsRegistry& st = dep_->stats;
    st.counter("sim.events_executed").set(dep_->sim.events_executed());
    st.counter("sim.peak_queue_depth").set(dep_->sim.peak_pending());
    // Closure-storage health: pooled_closures must stay 0 for every
    // workload in the repo (the capture audit).
    const sim::ClosurePool::Stats& cls = dep_->sim.closure_stats();
    st.counter("sim.closure.inline").set(cls.inline_closures);
    st.counter("sim.closure.pooled").set(cls.pooled_closures);
    st.counter("sim.closure.pool_blocks").set(cls.blocks_allocated);
    const sim::ChannelStats& cs = dep_->channel.stats();
    st.counter("channel.unicasts_sent").set(cs.unicasts_sent);
    st.counter("channel.unicasts_delivered").set(cs.unicasts_delivered);
    st.counter("channel.unicasts_failed").set(cs.unicasts_failed);
    st.counter("channel.broadcasts_sent").set(cs.broadcasts_sent);
    // Spatial-index and neighbor-cache health.  world.grid.* and
    // world.neighbor_cache.* count host-side work that depends on the
    // index and cache layout, not on simulated behaviour, so result
    // comparisons (the CI baseline pin, perfbench digests) ignore them.
    const sim::World::IndexStats& gs = dep_->world.index_stats();
    st.counter("world.grid.queries").set(gs.queries);
    st.counter("world.grid.candidates").set(gs.candidates);
    st.counter("world.grid.rebins").set(gs.rebins);
    st.counter("world.grid.rebuilds").set(gs.rebuilds);
    const sim::NeighborCache::Stats& ns = dep_->world.neighbor_cache_stats();
    st.counter("world.neighbor_cache.hits").set(ns.hits);
    st.counter("world.neighbor_cache.rebuilds").set(ns.rebuilds);
    st.counter("world.neighbor_cache.invalidations").set(ns.invalidations);
    for (const auto& [node, airtime] : dep_->channel.busiest_nodes(5)) {
      st.counter("node." + std::to_string(node) + ".airtime_us")
          .set(static_cast<std::uint64_t>(airtime * 1e6));
    }
    system_->export_stats(st);
    metrics.observability = st.snapshot();

    // Load-fairness series (schema v5): airtime spread over every node
    // of the deployment (zeros included -- an idle node is the flip
    // side of a hot one), and -- REFER only -- the per-arc forward
    // histogram the routing-policy comparison is about.
    std::vector<double> airtime(dep_->world.size());
    for (std::size_t n = 0; n < airtime.size(); ++n) {
      airtime[n] = dep_->channel.node_airtime_s(static_cast<NodeId>(n));
    }
    metrics.airtime_gini = gini_coefficient(airtime);
    metrics.airtime_max_min = max_min_ratio(airtime);
    if (core::ReferSystem* rs = system_->refer_system()) {
      const std::vector<std::uint64_t>& arcs = rs->router().arc_forwards();
      if (!arcs.empty()) {
        std::vector<double> load(arcs.begin(), arcs.end());
        metrics.arc_load_gini = gini_coefficient(load);
        metrics.arc_load_max_min = max_min_ratio(load);
        metrics.arc_forwards = arcs;
      }
    }
    return metrics;
  }

 private:
  void schedule_round(double at) {
    if (at >= measure_to_) return;
    dep_->sim.schedule_at(at, [this, at] {
      const Scenario& sc = dep_->scenario;
      // Pick this round's random sources among the alive sensors.
      std::vector<NodeId> alive;
      for (NodeId s : dep_->sensors) {
        if (dep_->world.alive(s)) alive.push_back(s);
      }
      if (!alive.empty()) {
        const int k = std::min<int>(sc.sources_per_round,
                                    static_cast<int>(alive.size()));
        for (std::size_t idx :
             workload_rng_.sample_indices(alive.size(),
                                          static_cast<std::size_t>(k))) {
          start_source(alive[idx], at);
        }
      }
      schedule_round(at + sc.round_period_s);
    });
  }

  void start_source(NodeId src, double round_start) {
    const Scenario& sc = dep_->scenario;
    const double gap = 1.0 / sc.packets_per_second;
    const int count = static_cast<int>(sc.round_period_s / gap);
    for (int j = 0; j < count; ++j) {
      const double at = round_start + j * gap;
      if (at >= measure_to_) break;
      dep_->sim.schedule_at(at, [this, src, at] {
        const bool counted = at >= measure_from_ && at < measure_to_;
        if (counted) {
          ++sent_;
          dep_->telemetry.on_send(at);
        }
        system_->send_event(src, dep_->scenario.packet_bytes,
                            [this, counted](const Delivery& d) {
                              if (!counted || !d.delivered) return;
                              ++delivered_;
                              all_delays_ms_.push_back(d.delay_s * 1000.0);
                              delay_ms_->record(d.delay_s * 1000.0);
                              kautz_hops_->record(d.kautz_hops);
                              physical_hops_->record(d.physical_hops);
                              failovers_->record(d.failovers);
                              const bool qos_ok =
                                  d.delay_s <= dep_->scenario.qos_deadline_s;
                              dep_->telemetry.on_delivery(
                                  dep_->sim.now(), d.delay_s * 1000.0, qos_ok,
                                  d.failovers);
                              if (qos_ok) {
                                ++qos_delivered_;
                                delay_sum_s_ += d.delay_s;
                              } else if (dep_->tracer.enabled()) {
                                sim::TraceRecord rec;
                                rec.t = dep_->sim.now();
                                rec.event = sim::TraceEvent::kQosDeadlineMiss;
                                rec.from = d.actuator;
                                rec.packet = d.packet_id;
                                rec.hop_index = d.kautz_hops;
                                dep_->tracer.emit(rec);
                              }
                            });
      });
    }
  }

  void schedule_faults(double at) {
    if (at >= measure_to_) return;
    dep_->sim.schedule_at(at, [this, at] {
      for (NodeId n : faulty_) dep_->world.set_alive(n, true);
      faulty_.clear();
      const int k = std::min<int>(dep_->scenario.faulty_nodes,
                                  static_cast<int>(dep_->sensors.size()));
      for (std::size_t idx : fault_rng_.sample_indices(
               dep_->sensors.size(), static_cast<std::size_t>(k))) {
        const NodeId n = dep_->sensors[idx];
        dep_->world.set_alive(n, false);
        faulty_.push_back(n);
      }
      schedule_faults(at + dep_->scenario.fault_period_s);
    });
  }

  Deployment* dep_;
  WsanSystem* system_;
  // Per-delivery streaming histograms (owned by the deployment registry).
  Histogram* delay_ms_;
  Histogram* kautz_hops_;
  Histogram* physical_hops_;
  Histogram* failovers_;
  Rng workload_rng_{0xBADC0DE};
  Rng fault_rng_{0xFA171};
  std::vector<NodeId> faulty_;
  double t0_ = 0, measure_from_ = 0, measure_to_ = 0;
  double comm_at_start_ = 0;
  std::uint64_t sent_ = 0, delivered_ = 0, qos_delivered_ = 0;
  double delay_sum_s_ = 0;
  std::vector<double> all_delays_ms_;
};

}  // namespace

RunMetrics run_once(SystemKind kind, const Scenario& scenario) {
  Deployment dep(scenario);
  auto system = dep.make_system(kind);
  Driver driver(dep, *system);
  if (!scenario.observer) return driver.run();
  RunContext ctx;
  ctx.kind = kind;
  ctx.scenario = &dep.scenario;
  ctx.sim = &dep.sim;
  ctx.world = &dep.world;
  ctx.channel = &dep.channel;
  ctx.energy = &dep.energy;
  ctx.tracer = &dep.tracer;
  ctx.trace_writer = dep.trace_writer.get();
  ctx.stats = &dep.stats;
  ctx.refer_system = system->refer_system();
  ctx.actuators = &dep.actuators;
  ctx.sensors = &dep.sensors;
  scenario.observer->on_run_start(ctx);
  const RunMetrics metrics = driver.run();
  scenario.observer->on_run_end(ctx, metrics);
  return metrics;
}

namespace {

/// One decomposed (system, x, seed) job: the scenario it runs with plus
/// the aggregation group it reports into.
struct JobSpec {
  std::size_t group = 0;
  JobRecord record;
  Scenario scenario;
};

/// Executes every spec's run_once — serially in order for jobs <= 1,
/// otherwise on a fixed-size thread pool.  run_once is deterministic and
/// touches no global state (src/common/rng.hpp), so the execution order
/// cannot affect any metric; only wall_ms varies between schedules.
void execute_jobs(std::vector<JobSpec>& specs, int jobs) {
  auto run_job = [](JobSpec& spec) {
    const auto t0 = std::chrono::steady_clock::now();
    spec.record.metrics = run_once(spec.record.system, spec.scenario);
    spec.record.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };
  if (jobs <= 1 || specs.size() <= 1) {
    for (JobSpec& spec : specs) run_job(spec);
    return;
  }
  runner::ThreadPool pool(runner::resolve_jobs(jobs));
  std::vector<std::future<void>> futures;
  futures.reserve(specs.size());
  for (JobSpec& spec : specs) {
    futures.push_back(pool.submit([&run_job, &spec] { run_job(spec); }));
  }
  for (std::future<void>& f : futures) f.get();
}

/// Aggregates the executed specs group by group, visiting them in spec
/// order -- the same Summary::add order as the serial code path, which
/// keeps floating-point results bit-identical for any job count.
std::vector<AggregateMetrics> aggregate_jobs(const std::vector<JobSpec>& specs,
                                             std::size_t n_groups,
                                             const JobSink& sink) {
  std::vector<AggregateMetrics> groups(n_groups);
  for (const JobSpec& spec : specs) {
    if (sink) sink(spec.record);
    const RunMetrics& m = spec.record.metrics;
    if (!m.build_ok) {
      log_warn("%s: build failed for seed %llu", to_string(spec.record.system),
               static_cast<unsigned long long>(spec.record.seed));
      continue;
    }
    AggregateMetrics& agg = groups[spec.group];
    agg.qos_throughput_kbps.add(m.qos_throughput_kbps);
    agg.avg_delay_ms.add(m.avg_delay_ms);
    agg.delay_p95_ms.add(m.delay_p95_ms);
    agg.delivery_ratio.add(m.delivery_ratio);
    agg.comm_energy_j.add(m.comm_energy_j);
    agg.construction_energy_j.add(m.construction_energy_j);
    agg.total_energy_j.add(m.total_energy_j);
    if (spec.scenario.app_enabled) {
      agg.app_loop_completion_ratio.add(m.app_loop_completion_ratio);
      agg.app_loop_p95_ms.add(m.app_loop_p95_ms);
      agg.app_actuator_availability.add(m.app_actuator_availability);
      agg.app_mean_recovery_s.add(m.app_mean_recovery_s);
    }
    agg.airtime_gini.add(m.airtime_gini);
    agg.airtime_max_min.add(m.airtime_max_min);
    if (!m.arc_forwards.empty()) {
      agg.arc_load_gini.add(m.arc_load_gini);
      agg.arc_load_max_min.add(m.arc_load_max_min);
    }
  }
  return groups;
}

/// Appends the `repetitions` seed jobs of one (x, system) group.
void append_group(std::vector<JobSpec>& specs, std::size_t group, double x,
                  SystemKind kind, const Scenario& scenario,
                  int repetitions) {
  const std::uint64_t base_seed = scenario.seed;
  for (int i = 0; i < repetitions; ++i) {
    JobSpec spec;
    spec.group = group;
    spec.record.x = x;
    spec.record.system = kind;
    spec.record.rep = i;
    spec.record.seed = base_seed + static_cast<std::uint64_t>(i) * 7919;
    spec.record.policy = scenario.routing_policy;
    spec.scenario = scenario;
    spec.scenario.seed = spec.record.seed;
    if (!scenario.trace_dir.empty()) {
      // One trace file per decomposed job; the name is a pure function
      // of (system, x, rep), so serial and parallel executions produce
      // byte-identical file sets.
      char xbuf[32];
      std::snprintf(xbuf, sizeof xbuf, "%g", x);
      spec.scenario.trace_path = scenario.trace_dir + "/" + to_string(kind) +
                                 "_x" + xbuf + "_rep" + std::to_string(i) +
                                 ".jsonl";
    }
    specs.push_back(std::move(spec));
  }
}

}  // namespace

AggregateMetrics run_repeated(SystemKind kind, Scenario scenario,
                              int repetitions, int jobs,
                              const JobSink& sink, double x) {
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(std::max(0, repetitions)));
  append_group(specs, 0, x, kind, scenario, repetitions);
  execute_jobs(specs, jobs);
  return aggregate_jobs(specs, 1, sink)[0];
}

std::vector<SweepPoint> sweep(
    Scenario base, const std::vector<double>& xs,
    const std::function<void(Scenario&, double)>& configure,
    int repetitions, int jobs, const JobSink& sink) {
  constexpr std::size_t kSystems = std::size(kAllSystems);
  std::vector<JobSpec> specs;
  specs.reserve(xs.size() * kSystems *
                static_cast<std::size_t>(std::max(0, repetitions)));
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    Scenario scenario = base;
    configure(scenario, xs[xi]);
    for (std::size_t si = 0; si < kSystems; ++si) {
      append_group(specs, xi * kSystems + si, xs[xi], kAllSystems[si],
                   scenario, repetitions);
    }
  }
  execute_jobs(specs, jobs);
  const std::vector<AggregateMetrics> groups =
      aggregate_jobs(specs, xs.size() * kSystems, sink);
  std::vector<SweepPoint> points;
  points.reserve(xs.size());
  for (std::size_t xi = 0; xi < xs.size(); ++xi) {
    SweepPoint point;
    point.x = xs[xi];
    point.by_system.assign(groups.begin() + static_cast<std::ptrdiff_t>(
                                                xi * kSystems),
                           groups.begin() + static_cast<std::ptrdiff_t>(
                                                (xi + 1) * kSystems));
    points.push_back(std::move(point));
  }
  return points;
}

void print_series_table(
    const std::string& title, const std::string& x_label,
    const std::string& y_label, const std::vector<SweepPoint>& points,
    const std::function<Summary(const AggregateMetrics&)>& select) {
  std::printf("\n%s\n", title.c_str());
  std::printf("y = %s; cells are mean +- 95%% CI\n", y_label.c_str());
  std::printf("%-14s", x_label.c_str());
  for (SystemKind kind : kAllSystems) {
    std::printf("%-22s", to_string(kind));
  }
  std::printf("\n");
  for (const auto& point : points) {
    std::printf("%-14.2f", point.x);
    for (const auto& agg : point.by_system) {
      std::printf("%-22s", select(agg).to_string(1).c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

bool write_series_csv(const std::string& path, const std::string& x_label,
                      const std::vector<SweepPoint>& points,
                      const std::function<Summary(
                          const AggregateMetrics&)>& select) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "%s", x_label.c_str());
  for (SystemKind kind : kAllSystems) {
    std::fprintf(f, ",%s_mean,%s_ci95", to_string(kind), to_string(kind));
  }
  std::fprintf(f, "\n");
  for (const auto& point : points) {
    std::fprintf(f, "%g", point.x);
    for (const auto& agg : point.by_system) {
      const Summary s = select(agg);
      std::fprintf(f, ",%g,%g", s.mean(), s.ci95_half_width());
    }
    std::fprintf(f, "\n");
  }
  // Any failed write sets the error flag; a full disk may surface only
  // when fclose flushes the buffered tail.
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace refer::harness
