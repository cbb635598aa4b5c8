// Failure-injection suite: random frame loss, node churn, combined
// stressors, and long-run soak with invariant auditing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/trace_report.hpp"
#include "harness/experiment.hpp"
#include "refer/validate.hpp"
#include "refer_fixture.hpp"
#include "sim/trace.hpp"

namespace refer {
namespace {

using kautz::Label;

// ---------------------------------------------------------- frame loss

class LossyChannelTest
    : public test::PaperScenario,
      public ::testing::WithParamInterface<double> {};

TEST_P(LossyChannelTest, ReferSurvivesRandomFrameLoss) {
  const double loss = GetParam();
  sim::ChannelConfig cfg;
  cfg.loss_probability = loss;
  sim::Channel lossy{sim, world, energy, Rng(3), cfg};
  add_quincunx_actuators();
  add_static_sensors(200);
  core::ReferSystem refer_sys(sim, world, lossy, energy, Rng(7));
  // Count routing events so the suite asserts the *mechanism* (fail-over
  // switches in the trace), not just the delivery outcome.
  sim::Tracer tracer;
  sim::CountingTraceSink sink;
  tracer.set_sink(std::ref(sink));
  sim.instruments().tracer = &tracer;
  bool ok = false;
  refer_sys.build([&](bool r) { ok = r; });
  sim.run_until(sim.now() + 30.0);
  ASSERT_TRUE(ok) << "embedding must survive " << loss * 100 << "% loss";

  Rng pick(5);
  int delivered = 0;
  const int total = 30;
  for (int i = 0; i < total; ++i) {
    const sim::NodeId src = refer_sys.random_active_sensor(pick);
    bool got = false;
    refer_sys.send_to_actuator(src, 1000,
                               [&](const core::DeliveryReport& r) {
                                 got = r.delivered;
                               });
    sim.run_until(sim.now() + 2.0);
    delivered += got;
  }
  // Fail-over retries across the d disjoint successors absorb most loss.
  const double floor = loss <= 0.02 ? 0.9 : (loss <= 0.05 ? 0.8 : 0.55);
  EXPECT_GE(delivered, static_cast<int>(total * floor))
      << delivered << "/" << total << " at loss " << loss;
  EXPECT_EQ(sink.count(sim::TraceEvent::kPacketSent),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(sink.count(sim::TraceEvent::kPacketDelivered),
            static_cast<std::uint64_t>(delivered));
  // Survival at >= 5% frame loss is only credible if the router actually
  // switched successors.  (No zero-fail-over claim at loss 0: a busy
  // relay can time out an ACK and legitimately fail over.)
  if (loss >= 0.05) {
    EXPECT_GT(sink.count(sim::TraceEvent::kFailover), 0u)
        << "deliveries survived " << loss * 100
        << "% loss without a single fail-over event";
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, LossyChannelTest,
                         ::testing::Values(0.0, 0.01, 0.02, 0.05, 0.10),
                         [](const auto& info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

// ----------------------------------------------------------- node churn

TEST(FailureInjection, ReferOutlivesHeavyChurn) {
  harness::Scenario sc;
  sc.warmup_s = 10;
  sc.measure_s = 60;
  sc.faulty_nodes = 30;       // 15% of the sensors down at any time
  sc.fault_period_s = 5;      // re-rolled twice per round
  sc.seed = 13;
  sc.trace_path = ::testing::TempDir() + "churn_trace.jsonl";
  const auto m = harness::run_once(harness::SystemKind::kRefer, sc);
  ASSERT_TRUE(m.build_ok);
  EXPECT_GT(m.delivery_ratio, 0.7) << "heavy churn";
  EXPECT_GT(m.qos_delivered, 0u);

  // Surviving churn must show up as fail-over events in the trace, and
  // every one of them must pass the offline Theorem 3.8 audit.
  const analysis::TraceReport report =
      analysis::analyze_trace_file(sc.trace_path);
  EXPECT_GT(report.lines, 0u);
  EXPECT_GT(report.failovers, 0u)
      << "heavy churn produced no trace-level fail-over events";
  EXPECT_GT(report.failovers_checked, 0u);
  EXPECT_EQ(report.failover_mismatches, 0u);
  EXPECT_EQ(report.violations(), 0u);
  std::remove(sc.trace_path.c_str());
}

TEST(FailureInjection, BaselinesDegradeMoreThanReferUnderChurn) {
  harness::Scenario sc;
  sc.warmup_s = 10;
  sc.measure_s = 60;
  sc.faulty_nodes = 20;
  sc.fault_period_s = 5;
  sc.seed = 13;
  const auto refer_m = harness::run_once(harness::SystemKind::kRefer, sc);
  const auto datree_m = harness::run_once(harness::SystemKind::kDaTree, sc);
  ASSERT_TRUE(refer_m.build_ok);
  ASSERT_TRUE(datree_m.build_ok);
  EXPECT_GE(refer_m.qos_delivered, datree_m.qos_delivered);
}

// --------------------------------------------------------------- soak

class SoakTest : public test::PaperScenario {};

TEST_F(SoakTest, OverlayInvariantsHoldThroughLongMobileRun) {
  add_quincunx_actuators();
  add_mobile_sensors(200, 3.0);
  ASSERT_TRUE(build_refer());  // maintenance on

  Rng pick(3), fault(7);
  std::vector<sim::NodeId> down;
  int delivered = 0, sent = 0;
  // 10 simulated minutes of traffic + churn.
  for (int round = 0; round < 60; ++round) {
    // Rotate a faulty set of 6 sensors.
    for (sim::NodeId n : down) world.set_alive(n, true);
    down.clear();
    for (std::size_t idx : fault.sample_indices(sensors.size(), 6)) {
      world.set_alive(sensors[idx], false);
      down.push_back(sensors[idx]);
    }
    for (int i = 0; i < 3; ++i) {
      const sim::NodeId src = system->random_active_sensor(pick);
      if (src < 0 || !world.alive(src)) continue;
      ++sent;
      system->send_to_actuator(src, 1000,
                               [&](const core::DeliveryReport& r) {
                                 delivered += r.delivered;
                               });
    }
    sim.run_until(sim.now() + 10.0);
  }
  for (sim::NodeId n : down) world.set_alive(n, true);
  system->maintenance().sweep();
  system->maintenance().sweep();

  EXPECT_GT(sent, 100);
  EXPECT_GT(delivered * 10, sent * 7)
      << delivered << "/" << sent << " delivered over the soak";
  // The overlay must still satisfy every structural invariant.
  const auto violations =
      core::validate_topology(system->topology(), world);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << (violations.empty() ? ""
                                                         : violations.front());
  EXPECT_GT(system->maintenance().stats().replacements, 0u);
}

TEST_F(SoakTest, ValidatorCatchesPlantedCorruption) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer(core::ReferConfig{.run_maintenance = false}));
  auto& topo = system->topology();
  EXPECT_TRUE(core::validate_topology(topo, world).empty());

  // Plant: bind a sensor label to an actuator.
  topo.cell(0).bind(Label{0, 1, 0}, actuators[0]);
  const auto violations = core::validate_topology(topo, world);
  EXPECT_FALSE(violations.empty());
}

TEST_F(SoakTest, ValidatorFlagsDeadHolder) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer(core::ReferConfig{.run_maintenance = false}));
  const auto node = system->topology().cell(0).node_of(Label{1, 0, 1});
  ASSERT_TRUE(node.has_value());
  world.set_alive(*node, false);
  const auto violations = core::validate_topology(system->topology(), world);
  EXPECT_FALSE(violations.empty());
  // Maintenance repairs it; the audit passes again.
  system->maintenance().sweep();
  EXPECT_TRUE(core::validate_topology(system->topology(), world).empty());
}

}  // namespace
}  // namespace refer
