// Flight-recorder tests (sim/telemetry.hpp): bucket-edge semantics, the
// zero-steady-state-allocation contract (counted by a global operator
// new hook), determinism contracts (serial vs parallel, telemetry on vs
// off, phase profiler on vs off), and the schema v3 golden regression:
// the timeseries' qos_kbps must reproduce the seed repo's v3
// qos_timeline_kbps values bit for bit.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "runner/parallel_executor.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting hooks for the zero-allocation assertions.  Only counts; all
// storage still comes from the default heap.
void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace refer {
namespace {

using sim::GaugeSnapshot;
using sim::Simulator;
using sim::TelemetryRecorder;
using sim::TimeSeries;

template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load();
  body();
  return g_heap_allocs.load() - before;
}

// ---------------------------------------------------------------------
// Bucket-edge semantics.  The legacy record_timeline dropped a delivery
// landing exactly at the measurement end (rel == window_s indexed one
// past the ceil(window/bucket) edge); the recorder pins it to the last
// bucket, and pushes anything later into late_samples.
// ---------------------------------------------------------------------

TEST(TelemetryBuckets, EdgeMapping) {
  Simulator sim;
  TelemetryRecorder rec;
  rec.start(sim, nullptr, nullptr, {}, /*measure_from=*/100.0,
            /*window_s=*/30.0, /*bucket_s=*/10.0, /*n_nodes=*/4,
            /*packet_bytes=*/1000);
  ASSERT_TRUE(rec.active());
  EXPECT_EQ(rec.bucket_for_rel(-0.001), TelemetryRecorder::npos);
  EXPECT_EQ(rec.bucket_for_rel(0.0), 0u);
  EXPECT_EQ(rec.bucket_for_rel(9.999), 0u);
  EXPECT_EQ(rec.bucket_for_rel(10.0), 1u);
  EXPECT_EQ(rec.bucket_for_rel(29.999), 2u);
  // The regression: exactly at the window end -> LAST bucket, not gone.
  EXPECT_EQ(rec.bucket_for_rel(30.0), 2u);
  EXPECT_EQ(rec.bucket_for_rel(30.001), TelemetryRecorder::npos);
}

TEST(TelemetryBuckets, RaggedLastBucketStillClosesInclusive) {
  // window 25 / bucket 10 -> 3 buckets; the last covers [20, 25].
  Simulator sim;
  TelemetryRecorder rec;
  rec.start(sim, nullptr, nullptr, {}, 0.0, 25.0, 10.0, 4, 1000);
  EXPECT_EQ(rec.bucket_for_rel(19.999), 1u);
  EXPECT_EQ(rec.bucket_for_rel(20.0), 2u);
  EXPECT_EQ(rec.bucket_for_rel(25.0), 2u);
  EXPECT_EQ(rec.bucket_for_rel(25.0001), TelemetryRecorder::npos);
}

TEST(TelemetryBuckets, DeliveryAtWindowEndCountsLaterOnesLate) {
  Simulator sim;
  TelemetryRecorder rec;
  rec.start(sim, nullptr, nullptr, {}, 100.0, 30.0, 10.0, 4, 1000);
  rec.on_delivery(100.0, 5.0, true, 0);   // first bucket
  rec.on_delivery(130.0, 5.0, true, 0);   // exactly at the end: last bucket
  rec.on_delivery(130.5, 5.0, true, 0);   // drain period: late
  rec.on_send(131.0);                     // late as well
  rec.finalize();
  const TimeSeries& ts = rec.series();
  ASSERT_EQ(ts.buckets(), 3u);
  EXPECT_EQ(ts.delivered[0], 1u);
  EXPECT_EQ(ts.delivered[1], 0u);
  EXPECT_EQ(ts.delivered[2], 1u);
  EXPECT_EQ(ts.late_samples, 2u);
  EXPECT_GT(ts.delay_p50_ms[2], 0.0);  // cursor flushed the last bucket
}

// ---------------------------------------------------------------------
// Allocation contract: after start() preallocates, the hot-path hooks,
// the scheduled gauge ticks, and finalize() allocate NOTHING.
// ---------------------------------------------------------------------

TEST(TelemetryAllocation, SteadyStateIsAllocationFree) {
  Simulator sim;
  TelemetryRecorder rec;
  rec.start(
      sim, nullptr, nullptr, [](GaugeSnapshot&) {}, 0.0, 30.0, 5.0, 8, 1000);
  sim.run_until(0.0);  // baseline tick
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 2000; ++i) {
      const double t = 30.0 * (i + 1) / 2000.0;
      rec.on_send(t);
      rec.on_delivery(t, 12.5 + i % 7, (i % 5) != 0, i % 3);
      rec.on_queue_wait(t, 80.0 + i % 11);
      rec.on_app_loop_start(t);
      rec.on_app_loop_done(t, (i % 4) != 0, 33.0);
    }
    sim.run_until(30.0);  // all six gauge ticks
    rec.finalize();
  });
  EXPECT_EQ(allocs, 0u) << "telemetry steady state must not allocate";
  const TimeSeries& ts = rec.series();
  ASSERT_EQ(ts.buckets(), 6u);
  EXPECT_EQ(std::accumulate(ts.sent.begin(), ts.sent.end(), std::uint64_t{0}),
            2000u);
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    EXPECT_GT(ts.delay_p50_ms[b], 0.0) << "bucket " << b;
    EXPECT_GT(ts.queue_wait_mean_us[b], 0.0) << "bucket " << b;
  }
}

// ---------------------------------------------------------------------
// Determinism contracts over full harness runs.
// ---------------------------------------------------------------------

harness::Scenario timeline_scenario() {
  harness::Scenario sc;
  sc.warmup_s = 5;
  sc.measure_s = 30;
  sc.packets_per_second = 4;
  sc.mobile = false;
  sc.seed = 11;
  sc.timeline_bucket_s = 5;
  return sc;
}

void expect_timeseries_eq(const TimeSeries& a, const TimeSeries& b) {
  EXPECT_EQ(a.bucket_s, b.bucket_s);
  EXPECT_EQ(a.start_s, b.start_s);
  EXPECT_EQ(a.window_s, b.window_s);
  EXPECT_EQ(a.top_k, b.top_k);
  EXPECT_EQ(a.late_samples, b.late_samples);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.qos_delivered, b.qos_delivered);
  EXPECT_EQ(a.qos_kbps, b.qos_kbps);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.delay_p50_ms, b.delay_p50_ms);
  EXPECT_EQ(a.delay_p95_ms, b.delay_p95_ms);
  EXPECT_EQ(a.queue_wait_mean_us, b.queue_wait_mean_us);
  EXPECT_EQ(a.queue_wait_p95_us, b.queue_wait_p95_us);
  EXPECT_EQ(a.channel_busy_fraction, b.channel_busy_fraction);
  EXPECT_EQ(a.energy_rate_w, b.energy_rate_w);
  EXPECT_EQ(a.event_queue_depth, b.event_queue_depth);
  EXPECT_EQ(a.route_cache_hit_rate, b.route_cache_hit_rate);
  EXPECT_EQ(a.app_loops_started, b.app_loops_started);
  EXPECT_EQ(a.app_loops_ok, b.app_loops_ok);
  EXPECT_EQ(a.app_loop_mean_ms, b.app_loop_mean_ms);
  EXPECT_EQ(a.top_airtime_node, b.top_airtime_node);
  EXPECT_EQ(a.top_airtime_rate, b.top_airtime_rate);
  EXPECT_EQ(a.top_energy_node, b.top_energy_node);
  EXPECT_EQ(a.top_energy_rate_w, b.top_energy_rate_w);
  // phase_wall_us is wall clock -- deliberately NOT compared.
}

TEST(TelemetryDeterminism, SerialVsParallelBitIdentical) {
  runner::ParallelExecutor serial(1);
  runner::ParallelExecutor parallel(4);
  (void)serial.run_repeated(harness::SystemKind::kRefer, timeline_scenario(),
                            3);
  (void)parallel.run_repeated(harness::SystemKind::kRefer,
                              timeline_scenario(), 3);
  ASSERT_EQ(serial.records().size(), 3u);
  ASSERT_EQ(parallel.records().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    expect_timeseries_eq(serial.records()[i].metrics.timeseries,
                         parallel.records()[i].metrics.timeseries);
  }
}

TEST(TelemetryDeterminism, RecorderDoesNotPerturbDeliveryMetrics) {
  // Gauge ticks are read-only kernel events: they shift event sequence
  // numbers (like the profile flag) but draw no randomness and mutate
  // nothing, so every delivery-side metric is identical with the
  // flight recorder on and off.
  harness::Scenario on = timeline_scenario();
  harness::Scenario off = timeline_scenario();
  off.timeline_bucket_s = 0;
  const harness::RunMetrics a = harness::run_once(harness::SystemKind::kRefer, on);
  const harness::RunMetrics b = harness::run_once(harness::SystemKind::kRefer, off);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.qos_delivered, b.qos_delivered);
  EXPECT_EQ(a.qos_throughput_kbps, b.qos_throughput_kbps);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_TRUE(b.timeseries.sent.empty());
}

TEST(TelemetryDeterminism, PhaseProfileDoesNotPerturbSeries) {
  harness::Scenario plain = timeline_scenario();
  harness::Scenario profiled = timeline_scenario();
  profiled.phase_profile = true;
  const harness::RunMetrics a =
      harness::run_once(harness::SystemKind::kRefer, plain);
  const harness::RunMetrics b =
      harness::run_once(harness::SystemKind::kRefer, profiled);
  expect_timeseries_eq(a.timeseries, b.timeseries);
  EXPECT_TRUE(a.timeseries.phase_wall_us.empty());
  EXPECT_EQ(b.timeseries.phase_wall_us.size(),
            b.timeseries.buckets() *
                static_cast<std::size_t>(refer::kPhaseCount));
}

TEST(TelemetryPhases, EveryInstrumentedLayerChargesItsPhase) {
  // The harness fills one instrumentation context; a layer that stopped
  // reading it would leave its phase account at zero.
  for (const harness::SystemKind kind : harness::kAllSystems) {
    SCOPED_TRACE(harness::to_string(kind));
    harness::Scenario sc = timeline_scenario();
    sc.phase_profile = true;
    const harness::RunMetrics m = harness::run_once(kind, sc);
    ASSERT_TRUE(m.build_ok);
    std::vector<double> charged_us(static_cast<std::size_t>(kPhaseCount));
    for (std::size_t i = 0; i < m.timeseries.phase_wall_us.size(); ++i) {
      charged_us[i % charged_us.size()] += m.timeseries.phase_wall_us[i];
    }
    const auto charged = [&](Phase p) {
      return charged_us[static_cast<std::size_t>(p)];
    };
    EXPECT_GT(charged(Phase::kKernelDispatch), 0.0);
    EXPECT_GT(charged(Phase::kMediumScan), 0.0);
    EXPECT_GT(charged(Phase::kSpatialQuery), 0.0);
    if (kind == harness::SystemKind::kRefer) {
      EXPECT_GT(charged(Phase::kRoutingDecide), 0.0);
    }
  }
}

// ---------------------------------------------------------------------
// Series consistency against the aggregate metrics.
// ---------------------------------------------------------------------

TEST(TelemetrySeries, SumsMatchAggregates) {
  harness::Scenario sc = timeline_scenario();
  sc.app_enabled = true;
  const harness::RunMetrics m =
      harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  const TimeSeries& ts = m.timeseries;
  ASSERT_EQ(ts.buckets(), 6u);
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_EQ(sum(ts.sent), m.packets_sent);
  // Deliveries landing in the drain period are late_samples, not lost.
  EXPECT_LE(sum(ts.delivered), m.packets_delivered);
  EXPECT_LE(sum(ts.qos_delivered), m.qos_delivered);
  EXPECT_EQ(sum(ts.app_loops_started), m.app_loops_started);
  EXPECT_LE(sum(ts.app_loops_ok), m.app_loops_started);
  // The gauges moved: some bucket burned energy and carried frames.
  double energy = 0, busy = 0;
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    energy += ts.energy_rate_w[b];
    busy += ts.channel_busy_fraction[b];
    EXPECT_GE(ts.channel_busy_fraction[b], 0.0);
    EXPECT_LE(ts.channel_busy_fraction[b], 1.0);
  }
  EXPECT_GT(energy, 0.0);
  EXPECT_GT(busy, 0.0);
  // Top transmitter slots filled, rates sorted descending within bucket.
  EXPECT_GE(ts.top_airtime_node[0], 0);
  for (std::size_t b = 0; b < ts.buckets(); ++b) {
    const std::size_t base = b * static_cast<std::size_t>(ts.top_k);
    for (int k = 1; k < ts.top_k; ++k) {
      EXPECT_GE(ts.top_airtime_rate[base + static_cast<std::size_t>(k) - 1],
                ts.top_airtime_rate[base + static_cast<std::size_t>(k)]);
    }
  }
}

// ---------------------------------------------------------------------
// Schema v3 golden regression.  The exact qos_timeline_kbps vectors
// below were captured from the seed repo (pre-refactor
// harness::record_timeline) at this scenario; the recorder's qos_kbps
// series must reproduce them bit for bit.
// ---------------------------------------------------------------------

TEST(TelemetryGolden, LegacyQosTimelineReproducedBitForBit) {
  const struct {
    harness::SystemKind kind;
    std::vector<double> kbps;
  } golden[] = {
      {harness::SystemKind::kRefer, {1000, 1000, 986, 1014, 1000, 1000}},
      {harness::SystemKind::kDaTree, {393, 89, 34, 1, 36, 39}},
      {harness::SystemKind::kDDear, {1000, 1000, 1000, 894, 1000, 1000}},
      {harness::SystemKind::kKautzOverlay, {13, 9, 0, 0, 0, 0}},
  };
  for (const auto& g : golden) {
    SCOPED_TRACE(harness::to_string(g.kind));
    harness::Scenario sc;
    sc.mobile = true;
    sc.max_speed_mps = 4.0;
    sc.measure_s = 120.0;
    sc.timeline_bucket_s = 20.0;
    sc.seed = 5;
    const harness::RunMetrics m = harness::run_once(g.kind, sc);
    ASSERT_TRUE(m.build_ok);
    EXPECT_EQ(m.timeseries.qos_kbps, g.kbps);
  }
}

}  // namespace
}  // namespace refer
