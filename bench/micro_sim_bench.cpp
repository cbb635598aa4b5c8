// Micro-benchmarks (google-benchmark) for the DES kernel: the binary-heap
// event queue and the SBO EventClosure vs. std::function closure storage.
//
// BM_HoldModel is the classic hold model for priority-queue evaluation
// (Jones, CACM 1986): N pending self-rescheduling timers at steady state,
// each step pops one event and pushes its replacement at now + Exp(mean).
// The heap pays O(log N) per transaction, so N = 1k vs. 100k shows the
// log factor plus the cache misses of a large heap; N = 12288 is the
// peak depth of perfbench's `saturated` workload.
//
// BM_MixedHorizon repeats the hold model with a bimodal delay mix (90%
// near timers, 10% far horizons): ack timeouts and round timers mixed
// into per-frame traffic.
//
// BM_BurstFanout schedules a K-event burst at one timestamp and drains
// it, the shape a broadcast flood or round kickoff produces; the seq
// tiebreak decides every comparison.
//
// BM_Closure_* isolates closure storage: construct + invoke of a capture
// that fits std::function's inline buffer (16 bytes on libstdc++) vs. one
// the size of the largest capture the simulator actually schedules
// (Channel::unicast, ~56 bytes), which std::function heap-allocates and
// EventClosure keeps in its 64-byte inline buffer.  EventClosure has
// no other storage: a capture over 64 bytes does not compile.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "sim/event_closure.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace refer;

/// Self-rescheduling timer: pops as one event, pushes its successor.
/// 8 (Simulator*) + 32 (Rng) + 16 (delay params) = 56 bytes -- inline in
/// EventClosure, matching the kernel's worst real capture.
struct HoldTimer {
  sim::Simulator* simulator;
  Rng rng;
  double short_mean;
  double long_mean;  ///< 0 = single-mode hold model

  void operator()() {
    double delay = rng.exponential(short_mean);
    if (long_mean > 0 && rng.chance(0.1)) delay += rng.exponential(long_mean);
    simulator->schedule_in(delay, HoldTimer(*this));
  }
};

void bm_hold(benchmark::State& state, double long_mean) {
  sim::Simulator simulator;
  Rng seeder(7);
  const auto pending = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < pending; ++i) {
    HoldTimer timer{&simulator, seeder.split(), 1.0, long_mean};
    simulator.schedule_in(seeder.uniform(0, 2.0), std::move(timer));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.step());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simulator.events_executed()));
}

void BM_HoldModel(benchmark::State& state) { bm_hold(state, 0); }
BENCHMARK(BM_HoldModel)->Arg(1000)->Arg(12288)->Arg(100000);

void BM_MixedHorizon(benchmark::State& state) { bm_hold(state, 100.0); }
BENCHMARK(BM_MixedHorizon)->Arg(1000)->Arg(100000);

void BM_BurstFanout(benchmark::State& state) {
  sim::Simulator simulator;
  const auto burst = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const double at = simulator.now() + 1.0;
    for (int i = 0; i < burst; ++i) {
      simulator.schedule_at(at, [&sink, i] { sink += std::uint64_t(i); });
    }
    simulator.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simulator.events_executed()));
}
BENCHMARK(BM_BurstFanout)->Arg(64)->Arg(1024);

/// 16-byte capture: fits both std::function's SBO and EventClosure's.
struct SmallCapture {
  std::uint64_t* sink;
  std::uint64_t value;
  void operator()() const { *sink += value; }
};

/// 56-byte capture: the Channel::unicast shape.  Over std::function's
/// 16-byte inline buffer (heap-allocates), under EventClosure's 64.
struct LargeCapture {
  std::uint64_t* sink;
  std::uint64_t a, b, c, d, e;
  bool flag;
  void operator()() const { *sink += a + b + c + d + e + (flag ? 1 : 0); }
};
static_assert(sizeof(LargeCapture) == 56);
static_assert(sim::EventClosure::fits_inline<LargeCapture>());

template <typename Capture>
void bm_std_function(benchmark::State& state, Capture capture) {
  for (auto _ : state) {
    std::function<void()> fn(capture);
    fn();
    benchmark::DoNotOptimize(fn);
  }
}

template <typename Capture>
void bm_event_closure(benchmark::State& state, Capture capture) {
  for (auto _ : state) {
    sim::EventClosure fn{Capture(capture)};
    fn();
    benchmark::DoNotOptimize(&fn);
  }
}

std::uint64_t g_sink = 0;

void BM_Closure_StdFunction_16B(benchmark::State& state) {
  bm_std_function(state, SmallCapture{&g_sink, 3});
}
void BM_Closure_EventClosure_16B(benchmark::State& state) {
  bm_event_closure(state, SmallCapture{&g_sink, 3});
}
void BM_Closure_StdFunction_56B(benchmark::State& state) {
  bm_std_function(state, LargeCapture{&g_sink, 1, 2, 3, 4, 5, true});
}
void BM_Closure_EventClosure_56B(benchmark::State& state) {
  bm_event_closure(state, LargeCapture{&g_sink, 1, 2, 3, 4, 5, true});
}
BENCHMARK(BM_Closure_StdFunction_16B);
BENCHMARK(BM_Closure_EventClosure_16B);
BENCHMARK(BM_Closure_StdFunction_56B);
BENCHMARK(BM_Closure_EventClosure_56B);

}  // namespace

BENCHMARK_MAIN();
