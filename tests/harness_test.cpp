// Tests for the experiment harness: determinism, metric plumbing, fault
// injection, sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "sim/simulator.hpp"

namespace refer::harness {
namespace {

Scenario quick_scenario() {
  Scenario sc;
  sc.warmup_s = 5;
  sc.measure_s = 30;
  sc.packets_per_second = 4;
  sc.mobile = false;
  sc.seed = 11;
  return sc;
}

TEST(Harness, SystemNames) {
  EXPECT_STREQ(to_string(SystemKind::kRefer), "REFER");
  EXPECT_STREQ(to_string(SystemKind::kDaTree), "DaTree");
  EXPECT_STREQ(to_string(SystemKind::kDDear), "D-DEAR");
  EXPECT_STREQ(to_string(SystemKind::kKautzOverlay), "Kautz-overlay");
}

TEST(Harness, ReferRunsAndDelivers) {
  const RunMetrics m = run_once(SystemKind::kRefer, quick_scenario());
  ASSERT_TRUE(m.build_ok);
  EXPECT_GT(m.packets_sent, 100u);
  EXPECT_GT(m.delivery_ratio, 0.8);
  EXPECT_GT(m.qos_throughput_kbps, 0.0);
  EXPECT_GT(m.avg_delay_ms, 0.0);
  EXPECT_LT(m.avg_delay_ms, 600.0);
  EXPECT_GT(m.comm_energy_j, 0.0);
  EXPECT_GT(m.construction_energy_j, 0.0);
}

TEST(Harness, EverySystemBuildsAndCarriesTraffic) {
  for (SystemKind kind : kAllSystems) {
    const RunMetrics m = run_once(kind, quick_scenario());
    ASSERT_TRUE(m.build_ok) << to_string(kind);
    EXPECT_GT(m.delivery_ratio, 0.5) << to_string(kind);
  }
}

TEST(Harness, DeterministicForSameSeed) {
  for (SystemKind kind : kAllSystems) {
    const RunMetrics a = run_once(kind, quick_scenario());
    const RunMetrics b = run_once(kind, quick_scenario());
    EXPECT_EQ(a.packets_sent, b.packets_sent) << to_string(kind);
    EXPECT_EQ(a.qos_delivered, b.qos_delivered) << to_string(kind);
    EXPECT_DOUBLE_EQ(a.comm_energy_j, b.comm_energy_j) << to_string(kind);
    EXPECT_DOUBLE_EQ(a.avg_delay_ms, b.avg_delay_ms) << to_string(kind);
  }
}

TEST(Harness, SeedChangesOutcome) {
  Scenario sc = quick_scenario();
  const RunMetrics a = run_once(SystemKind::kDaTree, sc);
  sc.seed = 12345;
  const RunMetrics b = run_once(SystemKind::kDaTree, sc);
  EXPECT_NE(a.comm_energy_j, b.comm_energy_j);
}

TEST(Harness, FaultInjectionReducesDelivery) {
  Scenario sc = quick_scenario();
  const RunMetrics clean = run_once(SystemKind::kDaTree, sc);
  sc.faulty_nodes = 30;
  const RunMetrics faulty = run_once(SystemKind::kDaTree, sc);
  ASSERT_TRUE(faulty.build_ok);
  EXPECT_LT(faulty.delivery_ratio, clean.delivery_ratio + 0.01);
}

TEST(Harness, RunRepeatedAggregates) {
  Scenario sc = quick_scenario();
  sc.measure_s = 20;
  const AggregateMetrics agg = run_repeated(SystemKind::kRefer, sc, 3);
  EXPECT_EQ(agg.qos_throughput_kbps.count(), 3u);
  EXPECT_GT(agg.qos_throughput_kbps.mean(), 0.0);
  EXPECT_GE(agg.qos_throughput_kbps.ci95_half_width(), 0.0);
}

TEST(Harness, SweepProducesPointPerX) {
  Scenario sc = quick_scenario();
  sc.measure_s = 15;
  const auto points = sweep(
      sc, {0.0, 1.0},
      [](Scenario& s, double x) {
        s.mobile = x > 0;
        s.max_speed_mps = x;
      },
      1);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& p : points) {
    EXPECT_EQ(p.by_system.size(), 4u);
  }
  // Table printing must not crash.
  print_series_table("test", "x", "kbps", points,
                     [](const AggregateMetrics& a) {
                       return a.qos_throughput_kbps;
                     });
}

TEST(Harness, CsvExportMatchesSeries) {
  Scenario sc = quick_scenario();
  sc.measure_s = 15;
  const auto points = sweep(
      sc, {0.0}, [](Scenario& s, double) { s.mobile = false; }, 1);
  const std::string path = ::testing::TempDir() + "series_test.csv";
  ASSERT_TRUE(write_series_csv(path, "x", points,
                               [](const AggregateMetrics& a) {
                                 return a.qos_throughput_kbps;
                               }));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[512], row[512];
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  ASSERT_NE(std::fgets(row, sizeof row, f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(header).find("REFER_mean"), std::string::npos);
  EXPECT_NE(std::string(header).find("Kautz-overlay_ci95"),
            std::string::npos);
  EXPECT_EQ(row[0], '0');  // x = 0
}

TEST(Harness, CsvExportReportsFailedWrites) {
  const auto select = [](const AggregateMetrics& a) {
    return a.qos_throughput_kbps;
  };
  EXPECT_FALSE(write_series_csv(::testing::TempDir() + "no_such_dir/p.csv",
                                "x", {}, select));
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  // Opens fine, but the buffered header fails to flush: ENOSPC.
  EXPECT_FALSE(write_series_csv("/dev/full", "x", {}, select));
}

TEST(Harness, DelayPercentilesAreOrdered) {
  const RunMetrics m = run_once(SystemKind::kRefer, quick_scenario());
  ASSERT_TRUE(m.build_ok);
  EXPECT_GT(m.delay_p50_ms, 0.0);
  EXPECT_LE(m.delay_p50_ms, m.delay_p95_ms);
  EXPECT_LE(m.delay_p95_ms, m.delay_p99_ms);
}

TEST(Harness, TraceFileIsWrittenWhenRequested) {
  Scenario sc = quick_scenario();
  sc.measure_s = 10;
  sc.trace_path = ::testing::TempDir() + "harness_trace.jsonl";
  const RunMetrics m = run_once(SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  std::FILE* f = std::fopen(sc.trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  int lines = 0;
  while (std::fgets(line, sizeof line, f) && lines < 10) ++lines;
  std::fclose(f);
  EXPECT_GE(lines, 10) << "trace must contain frame events";
}

TEST(Harness, TimelineBucketsSumToTotal) {
  Scenario sc = quick_scenario();
  sc.measure_s = 30;
  sc.timeline_bucket_s = 10;
  const RunMetrics m = run_once(SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  ASSERT_EQ(m.timeseries.qos_kbps.size(), 3u);
  double total_kbits = 0;
  for (const double kbps : m.timeseries.qos_kbps) {
    total_kbits += kbps * sc.timeline_bucket_s;
  }
  const double expected_kbits =
      static_cast<double>(m.qos_delivered) *
      static_cast<double>(sc.packet_bytes) * 8.0 / 1000.0;
  EXPECT_NEAR(total_kbits, expected_kbits, expected_kbits * 0.02 + 1);
}

TEST(Harness, TimelineOffByDefault) {
  const RunMetrics m = run_once(SystemKind::kRefer, quick_scenario());
  EXPECT_TRUE(m.timeseries.qos_kbps.empty());
}

TEST(Harness, ObservabilitySnapshotCoversRouterChannelAndKernel) {
  const RunMetrics m = run_once(SystemKind::kRefer, quick_scenario());
  ASSERT_TRUE(m.build_ok);
  ASSERT_FALSE(m.observability.empty());
  auto find = [&](const std::string& name) -> const StatsRegistry::Entry* {
    for (const StatsRegistry::Entry& e : m.observability) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const auto* sent = find("router.packets_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_FALSE(sent->is_histogram);
  // The router counts warmup traffic too; the metric only the window.
  EXPECT_GE(sent->count, m.packets_sent);
  const auto* delay = find("delivery.delay_ms");
  ASSERT_NE(delay, nullptr);
  EXPECT_TRUE(delay->is_histogram);
  EXPECT_EQ(delay->count, m.packets_delivered);
  EXPECT_GT(delay->p50, 0.0);
  ASSERT_NE(find("delivery.failovers"), nullptr);
  ASSERT_NE(find("channel.unicasts_sent"), nullptr);
  const auto* queue_wait = find("channel.queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_TRUE(queue_wait->is_histogram);
  EXPECT_GT(queue_wait->count, 0u);
  const auto* events = find("sim.events_executed");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->count, 0u);
  const auto* peak = find("sim.peak_queue_depth");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->count, 0u);
  // Snapshot order is deterministic: sorted by name.
  for (std::size_t i = 1; i < m.observability.size(); ++i) {
    EXPECT_LT(m.observability[i - 1].name, m.observability[i].name);
  }
}

/// Reads the kernel's scheduling counter when the run ends.
class ScheduledEventsProbe : public RunObserver {
 public:
  void on_run_end(const RunContext& ctx, const RunMetrics& metrics) override {
    (void)metrics;
    scheduled = ctx.sim->events_scheduled();
  }
  std::uint64_t scheduled = 0;
};

TEST(Harness, ClosureCountersKeepTheirPinnedValues) {
  // Every event closure is stored inline, so the exported closure
  // counters are fixed by construction: sim.closure.inline counts every
  // scheduled event and the two pool counters read 0.  The perfbench
  // reference digests cover all three.
  Scenario sc = quick_scenario();
  sc.measure_s = 10;
  ScheduledEventsProbe probe;
  sc.observer = &probe;
  const RunMetrics m = run_once(SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  auto count = [&](const std::string& name) -> std::uint64_t {
    for (const StatsRegistry::Entry& e : m.observability) {
      if (e.name == name) return e.count;
    }
    ADD_FAILURE() << name << " missing from the snapshot";
    return 0;
  };
  EXPECT_GT(probe.scheduled, 0u);
  EXPECT_EQ(count("sim.closure.inline"), probe.scheduled);
  EXPECT_GE(probe.scheduled, count("sim.events_executed"));
  EXPECT_EQ(count("sim.closure.pooled"), 0u);
  EXPECT_EQ(count("sim.closure.pool_blocks"), 0u);
}

TEST(Harness, ProfileAttachesKernelHistograms) {
  Scenario sc = quick_scenario();
  sc.measure_s = 10;
  sc.profile = true;
  const RunMetrics m = run_once(SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  bool found = false;
  for (const StatsRegistry::Entry& e : m.observability) {
    if (e.name.rfind("sim.event_us.", 0) == 0) {
      found = true;
      EXPECT_TRUE(e.is_histogram);
      EXPECT_GT(e.count, 0u);
    }
  }
  EXPECT_TRUE(found) << "profile=true must produce kernel histograms";
}

TEST(Harness, ProfileOffProducesNoKernelHistograms) {
  const RunMetrics m = run_once(SystemKind::kRefer, quick_scenario());
  for (const StatsRegistry::Entry& e : m.observability) {
    EXPECT_NE(e.name.rfind("sim.event_us.", 0), 0u) << e.name;
  }
}

TEST(Harness, StripActuatorPlacementWorks) {
  Scenario sc = quick_scenario();
  sc.n_actuators = 6;
  sc.measure_s = 15;
  const RunMetrics m = run_once(SystemKind::kRefer, sc);
  EXPECT_TRUE(m.build_ok) << "zig-zag strip must embed";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ScaleInvariance, DoublingLengthsAndSpeedsKeepsTracesByteIdentical) {
  // Doubling every length and speed is exact in IEEE arithmetic, and the
  // grid, slack and cell sizes are all relative, so every system must
  // make the same decisions at the same times.  An absolute constant
  // (such as a path-query power fixed in metres) breaks this.
  Scenario base;
  base.n_sensors = 120;
  base.warmup_s = 5;
  base.measure_s = 20;
  base.faulty_nodes = 4;
  base.seed = 7;
  Scenario doubled = base;
  doubled.area_side_m *= 2;
  doubled.sensor_spread_m *= 2;
  doubled.sensor_range_m *= 2;
  doubled.actuator_range_m *= 2;
  doubled.min_speed_mps *= 2;
  doubled.max_speed_mps *= 2;

  for (const SystemKind kind : kAllSystems) {
    const std::string stem =
        ::testing::TempDir() + "scale_" + to_string(kind);
    base.trace_path = stem + "_x1.jsonl";
    doubled.trace_path = stem + "_x2.jsonl";
    ASSERT_TRUE(run_once(kind, base).build_ok) << to_string(kind);
    ASSERT_TRUE(run_once(kind, doubled).build_ok) << to_string(kind);
    const std::string once = read_file(base.trace_path);
    ASSERT_FALSE(once.empty()) << to_string(kind);
    EXPECT_TRUE(once == read_file(doubled.trace_path))
        << to_string(kind) << " traces diverge under doubling";
    std::remove(base.trace_path.c_str());
    std::remove(doubled.trace_path.c_str());
  }
}

}  // namespace
}  // namespace refer::harness
