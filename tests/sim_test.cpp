// Unit tests for the discrete-event substrate: simulator, mobility,
// energy, world, channel.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats_registry.hpp"
#include "common/strings.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "world_oracle.hpp"

namespace refer::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_in(1.0, [&] { ++fired; });
  });
  sim.run_until(1.5);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  sim.run_until(2.5);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, PendingCount) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.schedule_at(6.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_until(5.5);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Waypoint, StaticNodeNeverMoves) {
  Waypoint w(Point{10, 20});
  EXPECT_EQ(w.position_at(0), (Point{10, 20}));
  EXPECT_EQ(w.position_at(1e6), (Point{10, 20}));
  EXPECT_FALSE(w.is_mobile());
}

TEST(Waypoint, MobileNodeStaysInArea) {
  const Rect area{{0, 0}, {500, 500}};
  Waypoint w(Point{250, 250}, area, 0.0, 3.0, Rng(7));
  for (double t = 0; t < 5000; t += 13.7) {
    const Point p = w.position_at(t);
    EXPECT_TRUE(area.contains(p)) << "t=" << t;
  }
}

TEST(Waypoint, MobileNodeActuallyMoves) {
  const Rect area{{0, 0}, {500, 500}};
  Waypoint w(Point{250, 250}, area, 1.0, 3.0, Rng(11));
  const Point p0 = w.position_at(0);
  const Point p1 = w.position_at(60);
  EXPECT_GT(distance(p0, p1), 0.0);
}

TEST(Waypoint, SpeedBoundIsRespected) {
  const Rect area{{0, 0}, {500, 500}};
  Waypoint w(Point{250, 250}, area, 0.0, 3.0, Rng(13));
  Point prev = w.position_at(0);
  for (double t = 1; t < 2000; t += 1.0) {
    const Point cur = w.position_at(t);
    EXPECT_LE(distance(prev, cur), 3.0 + 1e-9);
    prev = cur;
  }
}

TEST(Waypoint, SameSeedSameTrajectory) {
  const Rect area{{0, 0}, {500, 500}};
  Waypoint a(Point{250, 250}, area, 0.5, 3.0, Rng(99));
  Waypoint b(Point{250, 250}, area, 0.5, 3.0, Rng(99));
  for (double t = 0; t < 500; t += 7.3) {
    EXPECT_EQ(a.position_at(t), b.position_at(t)) << "t=" << t;
  }
}

TEST(Waypoint, ZeroSpeedRangePauses) {
  const Rect area{{0, 0}, {500, 500}};
  // max speed below the move threshold: node pauses forever in place.
  Waypoint w(Point{100, 100}, area, 0.0, 0.005, Rng(17));
  EXPECT_EQ(w.position_at(500.0), (Point{100, 100}));
}

TEST(Energy, ChargesMatchPaperConstants) {
  EnergyTracker e;
  e.resize(3);
  e.charge_tx(0, EnergyBucket::kData);
  e.charge_rx(1, EnergyBucket::kData);
  EXPECT_DOUBLE_EQ(e.total(EnergyBucket::kData), 2.75);
  EXPECT_DOUBLE_EQ(e.node_total(0), 2.0);
  EXPECT_DOUBLE_EQ(e.node_total(1), 0.75);
  EXPECT_DOUBLE_EQ(e.node_total(2), 0.0);
}

TEST(Energy, BucketsAreSeparated) {
  EnergyTracker e;
  e.resize(1);
  e.charge_tx(0, EnergyBucket::kConstruction);
  e.charge_tx(0, EnergyBucket::kData);
  e.charge_tx(0, EnergyBucket::kMaintenance);
  EXPECT_DOUBLE_EQ(e.construction_total(), 2.0);
  EXPECT_DOUBLE_EQ(e.communication_total(), 4.0);  // data + maintenance
  EXPECT_DOUBLE_EQ(e.grand_total(), 6.0);
}

TEST(Energy, BatteryDrains) {
  EnergyTracker e;
  e.resize(1);
  e.set_initial_battery(5.0);
  EXPECT_DOUBLE_EQ(e.battery(0), 5.0);
  e.charge_tx(0, EnergyBucket::kData);
  EXPECT_DOUBLE_EQ(e.battery(0), 3.0);
  e.charge_tx(0, EnergyBucket::kData);
  e.charge_tx(0, EnergyBucket::kData);
  EXPECT_DOUBLE_EQ(e.battery(0), 0.0);  // clamped
}

class WorldTest : public ::testing::Test {
 protected:
  Simulator sim;
  World world{Rect{{0, 0}, {500, 500}}, sim};
};

TEST_F(WorldTest, KindsAndRanges) {
  const NodeId a = world.add_actuator({100, 100}, 250);
  const NodeId s = world.add_sensor({150, 100}, 100, 0, 3, Rng(3));
  EXPECT_TRUE(world.is_actuator(a));
  EXPECT_FALSE(world.is_actuator(s));
  EXPECT_DOUBLE_EQ(world.range(a), 250);
  EXPECT_DOUBLE_EQ(world.range(s), 100);
  EXPECT_EQ(world.size(), 2u);
}

TEST_F(WorldTest, AsymmetricReachability) {
  // Actuator range 250 covers the sensor at distance 200, but the sensor
  // range 100 does not cover the actuator.
  const NodeId a = world.add_actuator({0, 0}, 250);
  const NodeId s = world.add_static_sensor({200, 0}, 100);
  EXPECT_TRUE(world.can_reach(a, s));
  EXPECT_FALSE(world.can_reach(s, a));
}

TEST_F(WorldTest, DeadNodesAreUnreachable) {
  const NodeId a = world.add_actuator({0, 0}, 250);
  const NodeId s = world.add_static_sensor({50, 0}, 100);
  EXPECT_TRUE(world.can_reach(a, s));
  world.set_alive(s, false);
  EXPECT_FALSE(world.can_reach(a, s));
  EXPECT_FALSE(world.can_reach(s, a));
  world.set_alive(s, true);
  EXPECT_TRUE(world.can_reach(a, s));
}

TEST_F(WorldTest, ReachableFromExcludesSelfAndFar) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId near = world.add_static_sensor({60, 0}, 100);
  world.add_static_sensor({300, 0}, 100);  // far
  const auto reach = test::reachable_from(world, a);
  ASSERT_EQ(reach.size(), 1u);
  EXPECT_EQ(reach[0], near);
}

TEST_F(WorldTest, ClosestActuator) {
  const NodeId a1 = world.add_actuator({0, 0}, 250);
  const NodeId a2 = world.add_actuator({400, 400}, 250);
  const NodeId s = world.add_static_sensor({100, 100}, 100);
  EXPECT_EQ(world.closest_actuator(s), a1);
  world.set_alive(a1, false);
  EXPECT_EQ(world.closest_actuator(s), a2);
  // Two actuators exactly 200 m from the sensor: the lower id wins the
  // tie, and the higher one takes over once it is down.
  const NodeId a3 = world.add_actuator({300, 100}, 250);
  const NodeId a4 = world.add_actuator({100, 300}, 250);
  EXPECT_EQ(world.closest_actuator(s), a3);
  world.set_alive(a3, false);
  EXPECT_EQ(world.closest_actuator(s), a4);
  // An actuator is never its own closest actuator.
  EXPECT_EQ(world.closest_actuator(a4), a2);
}

TEST_F(WorldTest, AllOfFiltersByKind) {
  world.add_actuator({0, 0}, 250);
  world.add_static_sensor({1, 1}, 100);
  world.add_actuator({2, 2}, 250);
  EXPECT_EQ(world.all_of(NodeKind::kActuator).size(), 2u);
  EXPECT_EQ(world.all_of(NodeKind::kSensor).size(), 1u);
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() {
    energy.resize(16);
  }
  Simulator sim;
  World world{Rect{{0, 0}, {500, 500}}, sim};
  EnergyTracker energy;
  Channel channel{sim, world, energy, Rng(5)};
};

TEST_F(ChannelTest, UnicastDeliversInRange) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  bool delivered = false;
  channel.unicast(a, b, 500, EnergyBucket::kData,
                  [&](bool ok) { delivered = ok; });
  sim.run_all();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(channel.stats().unicasts_delivered, 1u);
  EXPECT_DOUBLE_EQ(energy.node_total(static_cast<std::size_t>(a)), 2.0);
  EXPECT_DOUBLE_EQ(energy.node_total(static_cast<std::size_t>(b)), 0.75);
}

TEST_F(ChannelTest, UnicastFailsOutOfRange) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({200, 0}, 100);
  bool called = false, delivered = true;
  channel.unicast(a, b, 500, EnergyBucket::kData, [&](bool ok) {
    called = true;
    delivered = ok;
  });
  sim.run_all();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
  // TX energy is still spent; no RX energy.
  EXPECT_DOUBLE_EQ(energy.node_total(static_cast<std::size_t>(a)), 2.0);
  EXPECT_DOUBLE_EQ(energy.node_total(static_cast<std::size_t>(b)), 0.0);
}

TEST_F(ChannelTest, UnicastToDeadNodeFails) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  world.set_alive(b, false);
  bool delivered = true;
  channel.unicast(a, b, 500, EnergyBucket::kData,
                  [&](bool ok) { delivered = ok; });
  sim.run_all();
  EXPECT_FALSE(delivered);
}

TEST_F(ChannelTest, DeadSenderFailsWithoutEnergy) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  world.set_alive(a, false);
  bool delivered = true;
  channel.unicast(a, b, 500, EnergyBucket::kData,
                  [&](bool ok) { delivered = ok; });
  sim.run_all();
  EXPECT_FALSE(delivered);
  EXPECT_DOUBLE_EQ(energy.grand_total(), 0.0);
}

TEST_F(ChannelTest, DeadSenderEmitsUnicastFailedTrace) {
  // Regression: the dead-sender path used to schedule done(false) without
  // emitting kUnicastFailed, so trace_report's hop chains saw a queued
  // send with no outcome.
  Tracer tracer;
  CountingTraceSink counter;
  tracer.set_sink(std::ref(counter));
  sim.instruments().tracer = &tracer;
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  world.set_alive(a, false);
  channel.unicast(a, b, 500, EnergyBucket::kData, nullptr);
  sim.run_all();
  EXPECT_EQ(counter.count(TraceEvent::kUnicastQueued), 1u);
  EXPECT_EQ(counter.count(TraceEvent::kUnicastFailed), 1u);
  EXPECT_EQ(counter.count(TraceEvent::kUnicastDelivered), 0u);
}

TEST(ChannelTopK, BusiestNodesSelectsTopKWithDeterministicTies) {
  // Jitter off: every 500-byte frame costs exactly the same airtime, so
  // send counts fully determine the ranking and equal counts pin the
  // tie-break (lower id first) that keeps partial selection stable.
  Simulator sim;
  World world{Rect{{0, 0}, {500, 500}}, sim};
  EnergyTracker energy;
  energy.resize(16);
  Channel channel{sim, world, energy, Rng(5),
                  ChannelConfig{.max_jitter_s = 0}};
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  const NodeId c = world.add_static_sensor({100, 0}, 100);
  const NodeId d = world.add_static_sensor({150, 0}, 100);
  const auto send_n = [&](NodeId from, NodeId to, int n) {
    for (int i = 0; i < n; ++i) {
      channel.unicast(from, to, 500, EnergyBucket::kData, nullptr);
      sim.run_all();
    }
  };
  send_n(a, b, 2);
  send_n(b, a, 5);
  send_n(c, b, 2);  // exact tie with a -> a wins on id
  send_n(d, c, 1);

  const auto top2 = channel.busiest_nodes(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].first, b);
  EXPECT_EQ(top2[1].first, a);

  // Asking for more than exist returns everyone, still fully ordered.
  const auto all = channel.busiest_nodes(10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].first, b);
  EXPECT_EQ(all[1].first, a);
  EXPECT_EQ(all[2].first, c);
  EXPECT_EQ(all[3].first, d);
  EXPECT_DOUBLE_EQ(all[1].second, all[2].second);
}

TEST_F(ChannelTest, FailureTakesLongerThanSuccess) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  const NodeId c = world.add_static_sensor({400, 0}, 100);
  Time ok_at = -1, fail_at = -1;
  channel.unicast(a, b, 500, EnergyBucket::kData,
                  [&](bool) { ok_at = sim.now(); });
  sim.run_all();
  channel.unicast(a, c, 500, EnergyBucket::kData,
                  [&](bool) { fail_at = sim.now(); });
  sim.run_all();
  ASSERT_GE(ok_at, 0.0);
  ASSERT_GE(fail_at, 0.0);
  EXPECT_GT(fail_at - ok_at, 0.004);  // ~ack timeout
}

TEST_F(ChannelTest, TransmissionsSerializeAtTheSender) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  std::vector<Time> arrivals;
  for (int i = 0; i < 5; ++i) {
    channel.unicast(a, b, 1000, EnergyBucket::kData,
                    [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 5u);
  const double ft = channel.frame_time(1000);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i] - arrivals[i - 1], ft - 1e-12)
        << "frames must not overlap at the sender";
  }
}

TEST_F(ChannelTest, BroadcastReachesAllInRange) {
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  world.add_static_sensor({50, 0}, 100);
  world.add_static_sensor({0, 70}, 100);
  world.add_static_sensor({300, 0}, 100);  // out of range
  std::vector<NodeId> got;
  channel.broadcast(a, 100, EnergyBucket::kMaintenance,
                    [&](NodeId r) { got.push_back(r); });
  sim.run_all();
  EXPECT_EQ(got.size(), 2u);
  // 1 TX + 2 RX.
  EXPECT_DOUBLE_EQ(energy.grand_total(), 2.0 + 2 * 0.75);
  EXPECT_EQ(channel.stats().broadcast_receptions, 2u);
}

TEST_F(ChannelTest, LossProbabilityDropsFrames) {
  ChannelConfig cfg;
  cfg.loss_probability = 1.0;
  Channel lossy{sim, world, energy, Rng(9), cfg};
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  bool delivered = true;
  lossy.unicast(a, b, 500, EnergyBucket::kData,
                [&](bool ok) { delivered = ok; });
  sim.run_all();
  EXPECT_FALSE(delivered);
}

TEST_F(ChannelTest, FrameTimeScalesWithBytes) {
  EXPECT_GT(channel.frame_time(2000), channel.frame_time(100));
  // 1000 bytes at 2 Mbps = 4 ms + overhead.
  EXPECT_NEAR(channel.frame_time(1000), 0.004 + 0.0006, 1e-9);
}

TEST_F(ChannelTest, CsmaNeighborsDefer) {
  // Two senders within carrier-sense range of each other must serialise,
  // even when transmitting to different receivers.
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  const NodeId ra = world.add_static_sensor({0, 60}, 100);
  const NodeId rb = world.add_static_sensor({50, 60}, 100);
  std::vector<Time> arrivals;
  channel.unicast(a, ra, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  channel.unicast(b, rb, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  const double ft = channel.frame_time(2000);
  EXPECT_GE(std::abs(arrivals[1] - arrivals[0]), ft - 1e-9)
      << "frames of in-range senders must not overlap";
}

TEST_F(ChannelTest, LateNodeSendsAndDefersItsNeighbours) {
  // The channel's per-node medium state grows on demand: a node that
  // joins after frames already went out can send, and its frame defers
  // every neighbour in its range.
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  channel.unicast(a, b, 2000, EnergyBucket::kData, nullptr);
  sim.run_all();
  const NodeId late = world.add_static_sensor({25, 50}, 100);
  const NodeId peer = world.add_static_sensor({25, 100}, 100);
  std::vector<Time> arrivals;
  channel.unicast(late, peer, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  channel.unicast(a, b, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], channel.frame_time(2000) - 1e-9)
      << "a must defer behind the late node's frame";
  EXPECT_GT(channel.node_airtime_s(late), 0.0);
  EXPECT_EQ(channel.stats().unicasts_delivered, 3u);
}

TEST_F(ChannelTest, SpatialReuseAllowsParallelTransmissions) {
  // Senders far outside each other's range transmit concurrently.
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId ra = world.add_static_sensor({50, 0}, 100);
  const NodeId b = world.add_static_sensor({400, 400}, 100);
  const NodeId rb = world.add_static_sensor({450, 400}, 100);
  std::vector<Time> arrivals;
  channel.unicast(a, ra, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  channel.unicast(b, rb, 2000, EnergyBucket::kData,
                  [&](bool ok) { if (ok) arrivals.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  const double ft = channel.frame_time(2000);
  EXPECT_LT(std::abs(arrivals[1] - arrivals[0]), ft)
      << "distant senders reuse the medium";
}

TEST_F(ChannelTest, BroadcastStormSaturatesAnArea) {
  // Ten co-located broadcasters: the last frame lands roughly ten frame
  // times after the first -- this airtime cost is what makes repair
  // storms expensive for the baselines.
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(world.add_static_sensor({10.0 * i, 0}, 100));
  }
  Time last = 0;
  int receptions = 0;
  for (NodeId n : nodes) {
    channel.broadcast(n, 1000, EnergyBucket::kMaintenance, [&](NodeId) {
      ++receptions;
      last = std::max(last, sim.now());
    });
  }
  sim.run_all();
  EXPECT_GT(receptions, 0);
  EXPECT_GE(last, 9 * channel.frame_time(1000));
}

TEST_F(ChannelTest, MobilityBreaksLinkMidFlight) {
  // Sensor b moves away; a long queue of frames from a eventually fails.
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_sensor({99, 0}, 100, 2.9, 3.0, Rng(21));
  int ok = 0, fail = 0;
  // Spread sends over 100 s: b will wander out of range at some point.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i * 1.0, [&] {
      channel.unicast(a, b, 500, EnergyBucket::kData,
                      [&](bool d) { d ? ++ok : ++fail; });
    });
  }
  sim.run_all();
  EXPECT_GT(ok + fail, 0);
  EXPECT_GT(fail, 0) << "a mobile receiver must break some links";
}

TEST_F(ChannelTest, TracerSeesEveryFrameEvent) {
  Tracer tracer;
  CountingTraceSink counter;
  tracer.set_sink(std::ref(counter));
  sim.instruments().tracer = &tracer;
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  const NodeId far = world.add_static_sensor({400, 0}, 100);
  channel.unicast(a, b, 500, EnergyBucket::kData, nullptr);
  channel.unicast(a, far, 500, EnergyBucket::kData, nullptr);
  channel.broadcast(b, 100, EnergyBucket::kMaintenance, nullptr);
  sim.run_all();
  EXPECT_EQ(counter.count(TraceEvent::kUnicastQueued), 2u);
  EXPECT_EQ(counter.count(TraceEvent::kUnicastDelivered), 1u);
  EXPECT_EQ(counter.count(TraceEvent::kUnicastFailed), 1u);
  EXPECT_EQ(counter.count(TraceEvent::kBroadcast), 1u);
}

TEST_F(ChannelTest, TracerDetachStopsEmission) {
  Tracer tracer;
  CountingTraceSink counter;
  tracer.set_sink(std::ref(counter));
  sim.instruments().tracer = &tracer;
  tracer.clear_sink();
  const NodeId a = world.add_static_sensor({0, 0}, 100);
  const NodeId b = world.add_static_sensor({50, 0}, 100);
  channel.unicast(a, b, 500, EnergyBucket::kData, nullptr);
  sim.run_all();
  EXPECT_EQ(counter.count(TraceEvent::kUnicastQueued), 0u);
}

TEST_F(ChannelTest, JsonlTraceWriterProducesParsableLines) {
  const std::string path = ::testing::TempDir() + "trace_test.jsonl";
  {
    Tracer tracer;
    JsonlTraceWriter writer(path);
    tracer.set_sink(std::ref(writer));
    sim.instruments().tracer = &tracer;
    const NodeId a = world.add_static_sensor({0, 0}, 100);
    const NodeId b = world.add_static_sensor({50, 0}, 100);
    channel.unicast(a, b, 500, EnergyBucket::kData, nullptr);
    sim.run_all();
    EXPECT_EQ(writer.records_written(), 2u);  // queued + delivered
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  int lines = 0;
  while (std::fgets(line, sizeof line, f)) {
    ++lines;
    EXPECT_EQ(line[0], '{');
    EXPECT_NE(std::string(line).find("\"event\":"), std::string::npos);
  }
  std::fclose(f);
  EXPECT_EQ(lines, 2);
}

TEST_F(WorldTest, LivenessFlipsEmitTraceEvents) {
  Tracer tracer;
  CountingTraceSink counter;
  tracer.set_sink(std::ref(counter));
  sim.instruments().tracer = &tracer;
  const NodeId s = world.add_static_sensor({0, 0}, 100);
  world.set_alive(s, false);
  world.set_alive(s, false);  // no flip: no event
  world.set_alive(s, true);
  EXPECT_EQ(counter.count(TraceEvent::kNodeDown), 1u);
  EXPECT_EQ(counter.count(TraceEvent::kNodeUp), 1u);
}

TEST(TraceEventNames, AreStable) {
  // The JSONL schema is a contract with tools/trace_report: renaming an
  // event string silently breaks the offline analyzer.
  EXPECT_STREQ(to_string(TraceEvent::kUnicastQueued), "unicast_queued");
  EXPECT_STREQ(to_string(TraceEvent::kBroadcast), "broadcast");
  EXPECT_STREQ(to_string(TraceEvent::kNodeDown), "node_down");
  EXPECT_STREQ(to_string(TraceEvent::kPacketSent), "packet_sent");
  EXPECT_STREQ(to_string(TraceEvent::kHopForward), "hop_forward");
  EXPECT_STREQ(to_string(TraceEvent::kFailover), "failover");
  EXPECT_STREQ(to_string(TraceEvent::kPacketDropped), "packet_dropped");
  EXPECT_STREQ(to_string(TraceEvent::kPacketDelivered), "packet_delivered");
  EXPECT_STREQ(to_string(TraceEvent::kQosDeadlineMiss), "qos_deadline_miss");
  EXPECT_STREQ(to_string(TraceEvent::kTraceHeader), "trace_header");
  EXPECT_STREQ(to_string(DropReason::kTtlExpired), "ttl_expired");
  EXPECT_STREQ(to_string(DropReason::kAllSuccessorsFailed),
               "all_successors_failed");
}

TEST(CountingTraceSink, CountsEveryEventKindIncludingTheLast) {
  // Regression for the hardcoded counts_[6]: the sink's array is sized
  // from the kTraceEventCount sentinel, so the newest event kind (the
  // one just before the sentinel) must count without corruption.
  CountingTraceSink sink;
  for (int i = 0; i < static_cast<int>(TraceEvent::kTraceEventCount); ++i) {
    TraceRecord rec;
    rec.event = static_cast<TraceEvent>(i);
    sink(rec);
  }
  for (int i = 0; i < static_cast<int>(TraceEvent::kTraceEventCount); ++i) {
    EXPECT_EQ(sink.count(static_cast<TraceEvent>(i)), 1u);
  }
}

TEST(JsonEscape, HandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
}

TEST(JsonlTraceWriter, ThrowsWhenPathCannotBeOpened) {
  EXPECT_THROW(JsonlTraceWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

TEST(JsonlTraceWriter, RoutingRecordsCarryPacketContext) {
  const std::string path = ::testing::TempDir() + "routing_trace.jsonl";
  {
    JsonlTraceWriter writer(path);
    TraceRecord hop;
    hop.t = 1.5;
    hop.event = TraceEvent::kHopForward;
    hop.from = 3;
    hop.to = 7;
    hop.packet = 42;
    hop.hop_index = 2;
    hop.at_label = "012";
    hop.dst_label = "120";
    hop.next_label = "120";
    writer(hop);
    TraceRecord drop;
    drop.event = TraceEvent::kPacketDropped;
    drop.packet = 43;
    drop.reason = DropReason::kTtlExpired;
    writer(drop);
    // A frame-level record must NOT grow routing keys.
    TraceRecord frame;
    frame.event = TraceEvent::kUnicastQueued;
    writer(frame);
    TraceRecord header;
    header.event = TraceEvent::kTraceHeader;
    header.degree = 2;
    writer(header);
    EXPECT_EQ(writer.records_written(), 4u);
  }
  std::ifstream in(path);
  std::string hop_line, drop_line, frame_line, header_line;
  ASSERT_TRUE(std::getline(in, hop_line));
  ASSERT_TRUE(std::getline(in, drop_line));
  ASSERT_TRUE(std::getline(in, frame_line));
  ASSERT_TRUE(std::getline(in, header_line));
  EXPECT_NE(hop_line.find("\"event\":\"hop_forward\""), std::string::npos);
  EXPECT_NE(hop_line.find("\"packet\":42"), std::string::npos);
  EXPECT_NE(hop_line.find("\"hop\":2"), std::string::npos);
  EXPECT_NE(hop_line.find("\"at\":\"012\""), std::string::npos);
  EXPECT_NE(hop_line.find("\"dst\":\"120\""), std::string::npos);
  EXPECT_NE(hop_line.find("\"next\":\"120\""), std::string::npos);
  EXPECT_NE(drop_line.find("\"reason\":\"ttl_expired\""), std::string::npos);
  EXPECT_EQ(frame_line.find("\"packet\""), std::string::npos);
  EXPECT_EQ(frame_line.find("\"at\""), std::string::npos);
  EXPECT_EQ(frame_line.find("\"degree\""), std::string::npos);
  EXPECT_NE(header_line.find("\"event\":\"trace_header\""),
            std::string::npos);
  EXPECT_NE(header_line.find("\"degree\":2"), std::string::npos);
}

TEST(SimulatorObservability, TracksPeakQueueDepth) {
  Simulator sim;
  EXPECT_EQ(sim.peak_pending(), 0u);
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0 + i, [] {});
  EXPECT_EQ(sim.peak_pending(), 5u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.peak_pending(), 5u);  // high-water mark survives draining
}

TEST(SimulatorObservability, ProfilerRecordsPerTagHistograms) {
  Simulator sim;
  StatsRegistry registry;
  sim.instruments().stats = &registry;
  sim.instruments().profile_events = true;
  sim.schedule_tagged(1.0, "tick", [] {});
  sim.schedule_tagged(2.0, "tick", [] {});
  sim.schedule_at(3.0, [] {});  // untagged -> "other"
  sim.run_all();
  EXPECT_EQ(registry.histogram("sim.event_us.tick").count(), 2u);
  EXPECT_EQ(registry.histogram("sim.event_us.other").count(), 1u);
}

}  // namespace
}  // namespace refer::sim
