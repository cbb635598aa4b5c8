// Discrete-event simulation kernel: a clock and an event queue.
//
// This is the ns-2 replacement substrate (see DESIGN.md, Substitutions).
// Events are closures ordered by (time, insertion seq); the sequence
// tiebreak makes runs bit-deterministic for a fixed seed.
//
// The scheduling core is allocation-free at steady state (see
// docs/ARCHITECTURE.md, "Event engine"):
//   - Captures are stored inline in an EventClosure, up to 64 bytes
//     (covers every lambda the codebase schedules); a larger capture
//     does not compile.
//   - Events sit in one binary heap (std::push_heap / pop_heap over a
//     vector, O(log n) per operation) that pops them in strict
//     (time, seq) order; the vector keeps its capacity, so steady-state
//     scheduling never allocates.
//
// Observability: the kernel always tracks the peak event-queue depth
// (one compare per push) and carries the run's instrumentation context
// (Instruments): every layer built on this simulator reads its tracer,
// stats registry, phase profiler and flight recorder from here.  With
// Instruments::profile_events on, the kernel times the wall-clock
// execution of every event into a per-tag histogram
// "sim.event_us.<tag>" of the context's StatsRegistry -- the hook
// hot-path optimisations report through.  Tags are optional static
// strings passed at scheduling time; untagged events land in
// "sim.event_us.other".  Profiling costs two clock reads per event when
// on and one branch when off.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/phase_profiler.hpp"
#include "sim/event_closure.hpp"

namespace refer {
class StatsRegistry;  // common/stats_registry.hpp
class Histogram;
}  // namespace refer

namespace refer::sim {

class Tracer;             // sim/trace.hpp
class TelemetryRecorder;  // sim/telemetry.hpp

/// Simulation time in seconds.
using Time = double;

/// The run's observers: one context per simulation run, kept in its
/// Simulator, from which every instrumented layer (World, Channel,
/// net::Flooder, ReferRouter, app::ControlLoopEngine, TelemetryRecorder)
/// reads them -- no layer holds observer pointers of its own.  Every
/// pointer is optional (nullptr = not observed) and must stay valid
/// while anything runs on the simulator.  Fill it before building layers
/// on the simulator: Channel registers its "channel.queue_wait_us"
/// histogram at construction.  Observing never perturbs simulation
/// state.
struct Instruments {
  Tracer* tracer = nullptr;  ///< trace events; emits only with a sink/tap
  StatsRegistry* stats = nullptr;  ///< streamed counters and histograms
  PhaseProfiler* phases = nullptr;  ///< wall-clock phase accounts
  /// Flight recorder; records nothing before TelemetryRecorder::start.
  TelemetryRecorder* telemetry = nullptr;
  /// Kernel event profile into stats' "sim.event_us.<tag>" histograms.
  bool profile_events = false;
};

/// One scheduled closure.  Ordered by (at, seq); seq is the scheduling
/// sequence number, which makes equal-time execution FIFO and runs
/// bit-deterministic for a fixed seed.
struct Event {
  Time at = 0;
  std::uint64_t seq = 0;
  const char* tag = nullptr;
  EventClosure fn;
};

/// Event-driven simulator.  Single-threaded; protocols schedule closures.
class Simulator {
 public:
  /// Compatibility alias; closures are stored as EventClosure, and a
  /// std::function passed here is just one more 32-byte inline capture.
  using EventFn = std::function<void()>;

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now()).  Events at
  /// equal times run in scheduling order.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    schedule_tagged(at, nullptr, std::forward<F>(fn));
  }

  /// Like schedule_at, with a profiling tag.  `tag` must outlive the
  /// simulator (pass a string literal); it only matters when the event
  /// profile is on.
  template <typename F>
  void schedule_tagged(Time at, const char* tag, F&& fn) {
    schedule_event(at, tag, EventClosure(std::forward<F>(fn)));
  }

  /// Schedules `fn` to run `delay` seconds from now.
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    schedule_tagged(now_ + delay, nullptr, std::forward<F>(fn));
  }
  template <typename F>
  void schedule_in_tagged(Time delay, const char* tag, F&& fn) {
    schedule_tagged(now_ + delay, tag, std::forward<F>(fn));
  }

  /// Runs events until the queue is empty or the next event is later than
  /// `until` (an event scheduled exactly at `until` still runs); the
  /// clock ends at max(now, until).
  void run_until(Time until);

  /// Runs everything in the queue.
  void run_all();

  /// Executes exactly one event if any is pending; returns whether one
  /// ran.  Benchmark/test hook for driving the kernel event by event.
  bool step();

  /// Number of events executed so far (for tests and sanity checks).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events still pending.
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// High-water mark of the event queue over the simulator's lifetime.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Number of events scheduled so far (the insertion-sequence counter).
  [[nodiscard]] std::uint64_t events_scheduled() const noexcept {
    return next_seq_;
  }

  /// The run's instrumentation context.  Every executed event charges
  /// its phase profiler's Phase::kKernelDispatch.
  [[nodiscard]] Instruments& instruments() noexcept { return instruments_; }
  [[nodiscard]] const Instruments& instruments() const noexcept {
    return instruments_;
  }

 private:
  void schedule_event(Time at, const char* tag, EventClosure fn);
  void execute(Event& ev);
  [[nodiscard]] Histogram* profile_histogram(const char* tag);
  /// Removes and returns the (at, seq)-minimum.  Precondition: pending().
  [[nodiscard]] Event pop_event();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  Instruments instruments_;
  /// Tag -> histogram cache of profile_registry_ (the context's registry
  /// when the cache was filled); tags are interned by pointer (literals),
  /// so a small linear scan beats hashing.  Never allocates on the hit
  /// path.
  StatsRegistry* profile_registry_ = nullptr;
  std::vector<std::pair<const char*, Histogram*>> profile_cache_;
  /// Binary heap keyed on (at, seq); heap_.front() runs next.
  std::vector<Event> heap_;
};

}  // namespace refer::sim
