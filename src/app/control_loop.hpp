// The closed-loop application layer: sense -> decide -> actuate.
//
// The paper's real-time claim is about *actuation*, not one-way
// delivery: a sensed event only counts when the report reaches a live
// actuator AND the actuation command makes it back to the sensor within
// the loop deadline.  This engine adds that tier on top of whichever
// routing stack the harness runs (REFER or any baseline) without the
// stacks knowing:
//
//   1. Threshold-triggered sensing.  A sensing::EventField generates
//      Poisson events over the area; at each event start the sensors
//      that detect it (probabilistic disc model, capped per event)
//      start a control loop.
//   2. Uplink through the normal traffic path.  The report rides
//      WsanSystem::send_event -- exactly the harness workload packet,
//      so all four systems carry it unchanged.
//   3. Decide + actuate.  On delivery, the sensor's *registered*
//      actuator issues the command (one sim::Channel unicast back to
//      the sensor).  Inter-actuator relay rides the paper's actuator
//      backbone and is modelled as free.
//   4. Supervision and fail-over.  Each actuator has an
//      ActuatorSupervisor; on a keepalive lapse past the miss limit its
//      sensors re-register with the nearest believed-up actuator.
//
// Every transition emits an app_* trace event (app_register,
// app_keepalive_miss, app_actuator_down/up, app_actuate,
// app_loop_complete, app_loop_miss) so the invariant engine and
// trace_report audit the registration state machine offline.
//
// The engine is single-run-local like the Tracer: one instance per
// Driver::run, all scheduling through the run's simulator, all draws
// from one Rng seeded off the scenario -- serial and parallel job
// execution stay bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/actuator_supervisor.hpp"
#include "app/fault_schedule.hpp"
#include "baselines/wsan_system.hpp"
#include "common/stats_registry.hpp"
#include "harness/scenario.hpp"
#include "sensing/event_field.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace refer::app {

/// End-of-run summary, copied into harness::RunMetrics by the driver.
struct AppMetrics {
  std::uint64_t loops_started = 0;
  std::uint64_t loops_completed = 0;        ///< command delivered at all
  std::uint64_t loops_within_deadline = 0;  ///< ... within the loop deadline
  double loop_p50_ms = 0;  ///< latency percentiles over completed loops
  double loop_p95_ms = 0;
  double loop_p99_ms = 0;
  /// loops_within_deadline / loops_started (0 when none started).
  double loop_completion_ratio = 0;
  /// 1 - broken actuator-seconds / (n_actuators * measure_s): exact
  /// integral of the fault schedule over the measurement window.
  double actuator_availability = 1;
  std::uint64_t recoveries = 0;  ///< believed-down -> re-registered spans
  double mean_recovery_s = 0;    ///< mean believed-down span (0 if none)
};

class ControlLoopEngine {
 public:
  /// Actuation command size (bytes) for the downlink unicast.
  static constexpr std::size_t kCommandBytes = 100;
  /// Sensors starting a loop per sensed event, at most.
  static constexpr int kMaxLoopsPerEvent = 3;
  /// Lifetime of a generated physical event.
  static constexpr double kEventDurationS = 5.0;

  /// Observes through the simulator's Instruments: app_* trace events,
  /// the "app.loop_latency_ms" histogram, and -- once the flight
  /// recorder is started -- the per-bucket app-loop series (bucketed by
  /// sense time).
  ControlLoopEngine(const harness::Scenario& scenario, sim::Simulator& sim,
                    sim::World& world, sim::Channel& channel,
                    baselines::WsanSystem& system,
                    const std::vector<sim::NodeId>& actuators,
                    const std::vector<sim::NodeId>& sensors);

  /// Derives the fault windows, registers every sensor, and schedules
  /// keepalives + sensing events over [t0, measure_to).
  void start(double t0, double measure_from, double measure_to);

  /// Computes the end-of-run summary (call after the simulator drained).
  [[nodiscard]] AppMetrics finalize();

  /// Counters for the observability snapshot (latency histogram streams
  /// during the run under "app.loop_latency_ms").
  void export_stats(StatsRegistry& stats) const;

 private:
  struct Loop {
    std::int64_t id = -1;
    int sensor_index = -1;
    double sense_t = 0;
    bool counted = false;  ///< sensed inside the measurement window
    bool completed = false;
    bool missed = false;  ///< deadline fired before completion
  };

  void emit(sim::TraceEvent event, sim::NodeId from, sim::NodeId to,
            std::int64_t packet = -1, std::size_t bytes = 0,
            int hop_index = -1);
  /// Nearest believed-up actuator by current distance (ties: lowest
  /// index); -1 when every actuator is believed down.
  [[nodiscard]] int nearest_up_actuator(int sensor_index);
  void register_sensor(int sensor_index);
  void schedule_keepalive(int tick);
  void on_keepalive_tick(int tick);
  void schedule_sensing_events();
  void on_event_start(const sensing::Event& event);
  void start_loop(int sensor_index);
  void on_uplink(std::size_t loop_slot, const baselines::Delivery& d);
  void on_command(std::size_t loop_slot, bool delivered);
  void on_deadline(std::size_t loop_slot);

  const harness::Scenario& scenario_;
  sim::Simulator& sim_;
  sim::World& world_;
  sim::Channel& channel_;
  baselines::WsanSystem& system_;
  const std::vector<sim::NodeId>& actuators_;
  const std::vector<sim::NodeId>& sensors_;
  Histogram* latency_ms_;  ///< "app.loop_latency_ms"; null without stats

  Rng rng_;
  double t0_ = 0, measure_from_ = 0, measure_to_ = 0;
  std::vector<FaultWindow> windows_;  ///< merged, relative to t0
  std::vector<ActuatorSupervisor> supervisors_;
  std::vector<int> registered_;  ///< sensor index -> actuator index
  sensing::EventField field_;
  sensing::DetectionModel detector_;
  std::vector<Loop> loops_;
  std::int64_t next_loop_id_ = 0;

  std::uint64_t loops_started_ = 0;
  std::uint64_t loops_completed_ = 0;
  std::uint64_t loops_within_deadline_ = 0;
  std::vector<double> latencies_ms_;  ///< counted completed loops
  std::uint64_t recoveries_ = 0;
  double recovery_sum_s_ = 0;
  std::uint64_t registrations_ = 0;
  std::uint64_t keepalive_misses_ = 0;
};

}  // namespace refer::app
