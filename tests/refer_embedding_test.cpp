// Tests for the Kautz embedding protocol: cell partition, colouring,
// sensor assignment, roles, CAN membership, construction energy.
#include <gtest/gtest.h>

#include <set>

#include "kautz/graph.hpp"
#include "refer/delaunay.hpp"
#include "refer/embedding.hpp"
#include "refer_fixture.hpp"

namespace refer::core {
namespace {

using test::PaperScenario;

TEST(Delaunay, QuincunxGivesFourTriangles) {
  const std::vector<Point> pts{{125, 125}, {375, 125}, {125, 375},
                               {375, 375}, {250, 250}};
  const auto tris = delaunay(pts);
  ASSERT_EQ(tris.size(), 4u);
  // Every triangle uses the centre point (index 4).
  for (const auto& t : tris) {
    EXPECT_EQ(t[2], 4);
  }
}

TEST(Delaunay, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(delaunay({}).empty());
  EXPECT_TRUE(delaunay({{0, 0}, {1, 1}}).empty());
}

TEST(Delaunay, SquareGivesTwoTriangles) {
  const std::vector<Point> pts{{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  EXPECT_EQ(delaunay(pts).size(), 2u);
}

TEST(Delaunay, FilterDropsLongEdges) {
  const std::vector<Point> pts{{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  auto tris = delaunay(pts);
  EXPECT_EQ(filter_by_edge_length(tris, pts, 150).size(), 2u);
  EXPECT_TRUE(filter_by_edge_length(tris, pts, 120).empty());  // diagonal 141
}

TEST(ThreeColor, WheelIsColorable) {
  // W4: centre 4 adjacent to cycle 0-1-2-3.
  std::vector<std::vector<int>> adj{
      {1, 3, 4}, {0, 2, 4}, {1, 3, 4}, {2, 0, 4}, {0, 1, 2, 3}};
  const auto colors = EmbeddingProtocol::three_color(adj);
  ASSERT_EQ(colors.size(), 5u);
  for (std::size_t v = 0; v < adj.size(); ++v) {
    for (int w : adj[v]) {
      EXPECT_NE(colors[v], colors[static_cast<std::size_t>(w)]);
    }
  }
}

TEST(ThreeColor, K4IsNotColorable) {
  std::vector<std::vector<int>> adj{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  EXPECT_TRUE(EmbeddingProtocol::three_color(adj).empty());
}

TEST(ThreeColor, EmptyGraph) {
  EXPECT_TRUE(EmbeddingProtocol::three_color({}).empty() ||
              EmbeddingProtocol::three_color({}).size() == 0);
}

TEST(CellTemplates, K23ScheduleMatchesPaper) {
  const auto schedule = k23_query_schedule();
  ASSERT_EQ(schedule.size(), 4u);
  // (5,201) -> (5,010) -> (5,101) -> (5,012)
  EXPECT_EQ(schedule[0].from, (Label{2, 0, 1}));
  EXPECT_EQ(schedule[0].to, (Label{0, 1, 2}));
  EXPECT_EQ(schedule[0].assigns[0], (Label{0, 1, 0}));
  EXPECT_EQ(schedule[0].assigns[1], (Label{1, 0, 1}));
  // S_i = 121 -> 210 -> 102 -> S_j = 020.
  EXPECT_EQ(schedule[3].from, (Label{1, 2, 1}));
  EXPECT_EQ(schedule[3].to, (Label{0, 2, 0}));
  // All 12 K(2,3) labels are covered: 3 actuators + 8 path + 1 fill-in.
  std::set<Label> labels;
  for (const auto& l : actuator_labels()) labels.insert(l);
  for (const auto& q : schedule) {
    labels.insert(q.assigns[0]);
    labels.insert(q.assigns[1]);
  }
  labels.insert(k23_fill_in().label);
  EXPECT_EQ(labels.size(), 12u);
  // And they are exactly the nodes of K(2,3).
  const kautz::Graph g(2, 3);
  for (const auto& l : labels) EXPECT_TRUE(g.contains(l));
}

TEST(CellTemplates, ScheduleEdgesAreKautzPaths) {
  // Each query template's from -> a1 -> a2 -> to must be a K(2,3) walk.
  const kautz::Graph g(2, 3);
  for (const auto& q : k23_query_schedule()) {
    EXPECT_TRUE(g.has_arc(q.from, q.assigns[0]));
    EXPECT_TRUE(g.has_arc(q.assigns[0], q.assigns[1]));
    EXPECT_TRUE(g.has_arc(q.assigns[1], q.to));
  }
  const auto fill = k23_fill_in();
  // 102 -> 021 -> 210: the fill-in label connects its two anchors.
  EXPECT_TRUE(g.has_arc(fill.neighbor_b, fill.label));
  EXPECT_TRUE(g.has_arc(fill.label, fill.neighbor_a));
}

TEST(Cell, BindUnbindRoundTrip) {
  Cell cell(3, {100, 100});
  cell.bind(Label{0, 1, 2}, 7);
  EXPECT_EQ(cell.node_of(Label{0, 1, 2}), std::optional<NodeId>(7));
  EXPECT_EQ(cell.label_of(7), std::optional<Label>(Label{0, 1, 2}));
  cell.bind(Label{0, 1, 2}, 9);  // rebind replaces
  EXPECT_EQ(cell.node_of(Label{0, 1, 2}), std::optional<NodeId>(9));
  EXPECT_FALSE(cell.label_of(7).has_value());
  cell.unbind(Label{0, 1, 2});
  EXPECT_EQ(cell.size(), 0u);
}

class EmbeddingTest : public PaperScenario {};

TEST_F(EmbeddingTest, PaperScenarioEmbedsFourCompleteCells) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  ASSERT_EQ(topo.cell_count(), 4u);
  for (Cid cid = 0; cid < 4; ++cid) {
    EXPECT_TRUE(topo.cell(cid).complete(2))
        << "cell " << cid << " has " << topo.cell(cid).size() << " labels";
  }
}

TEST_F(EmbeddingTest, BuildChargesFloodingToTheSimulatorsPhaseProfiler) {
  // ReferSystem's private flooder reads the phase profiler from the
  // simulator's instruments like every other layer, so the embedding's
  // path-query floods land in Phase::kFlooding.
  PhaseProfiler phases;
  phases.set_enabled(true);
  sim.instruments().phases = &phases;
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  EXPECT_GT(phases.count(Phase::kFlooding), 0u);
  EXPECT_GT(phases.count(Phase::kKernelDispatch), 0u);
  sim.instruments().phases = nullptr;  // `phases` dies before the fixture
}

TEST_F(EmbeddingTest, SensorAssignmentsAreABijection) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  std::set<NodeId> assigned;
  for (Cid cid = 0; cid < static_cast<Cid>(topo.cell_count()); ++cid) {
    for (NodeId n : topo.cell(cid).nodes()) {
      if (world.is_actuator(n)) continue;
      EXPECT_TRUE(assigned.insert(n).second)
          << "sensor " << n << " serves two labels/cells";
      const auto binding = topo.sensor_binding(n);
      ASSERT_TRUE(binding.has_value());
      EXPECT_EQ(binding->cid, cid);
      EXPECT_EQ(topo.cell(cid).node_of(binding->kid), std::optional(n));
    }
  }
  EXPECT_EQ(assigned.size(), 4u * 9u);  // 9 sensors per K(2,3) cell
}

TEST_F(EmbeddingTest, ActuatorsKeepOneKidAcrossCells) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  for (NodeId a : actuators) {
    const auto label = topo.actuator_label(a);
    ASSERT_TRUE(label.has_value());
    for (Cid cid : topo.actuator_cells(a)) {
      EXPECT_EQ(topo.cell(cid).label_of(a), label);
    }
  }
  // The centre actuator serves all 4 cells.
  EXPECT_EQ(topo.actuator_cells(actuators[4]).size(), 4u);
}

TEST_F(EmbeddingTest, CornersOfEveryCellHaveDistinctKids) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  for (Cid cid = 0; cid < static_cast<Cid>(topo.cell_count()); ++cid) {
    const auto corners = topo.cell(cid).corner_actuators();
    std::set<NodeId> nodes;
    for (const auto& c : corners) {
      ASSERT_TRUE(c.has_value());
      nodes.insert(*c);
    }
    EXPECT_EQ(nodes.size(), 3u);
  }
}

TEST_F(EmbeddingTest, RolesPartitionTheSensors) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  int active = 0, wait = 0, sleep = 0;
  for (NodeId s : sensors) {
    switch (topo.role(s)) {
      case Role::kActive: ++active; break;
      case Role::kWait: ++wait; break;
      case Role::kSleep: ++sleep; break;
      case Role::kActuator: FAIL() << "sensor with actuator role"; break;
    }
  }
  EXPECT_EQ(active, 36);
  EXPECT_EQ(active + wait + sleep, 200);
  EXPECT_GT(wait, 0) << "dense deployment must have candidates";
}

TEST_F(EmbeddingTest, CellsJoinTheCan) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  EXPECT_EQ(topo.can().size(), 4u);
  for (Cid cid = 0; cid < 4; ++cid) {
    EXPECT_TRUE(topo.can().contains(cid));
  }
}

TEST_F(EmbeddingTest, ConstructionEnergyOnlyInConstructionBucket) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer(core::ReferConfig{.run_maintenance = false}));
  EXPECT_GT(energy.construction_total(), 0.0);
  EXPECT_DOUBLE_EQ(energy.total(sim::EnergyBucket::kData), 0.0);
}

TEST_F(EmbeddingTest, StatsReflectTheProtocolSchedule) {
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer(core::ReferConfig{.run_maintenance = false}));
  const auto& stats = system->embedding_stats();
  // 4 cells x 4 path queries each.
  EXPECT_EQ(stats.path_queries, 16);
  EXPECT_EQ(stats.cells_embedded, 4);
  EXPECT_GT(stats.actuator_broadcasts, 0);
  EXPECT_GT(stats.notification_unicasts, 0);
  // The dense default scenario should need few (often zero) fallbacks and
  // no degraded assignments.
  EXPECT_LE(stats.fallback_assignments, 6);
  EXPECT_EQ(stats.degraded_assignments, 0);
}

TEST_F(EmbeddingTest, FailsWithTooFewActuators) {
  actuators.push_back(world.add_actuator({100, 100}, kActuatorRange));
  actuators.push_back(world.add_actuator({200, 100}, kActuatorRange));
  add_static_sensors(50);
  EXPECT_FALSE(build_refer());
}

TEST_F(EmbeddingTest, MostKautzArcsArePhysicallyShort) {
  // Topology consistency (SIII-B): Kautz-adjacent nodes should usually be
  // within direct range; the rest are reachable through the 1-relay
  // detour.
  add_quincunx_actuators();
  add_static_sensors(200);
  ASSERT_TRUE(build_refer());
  const auto& topo = system->topology();
  const kautz::Graph g(2, 3);
  int arcs = 0, direct = 0;
  for (Cid cid = 0; cid < static_cast<Cid>(topo.cell_count()); ++cid) {
    const Cell& cell = topo.cell(cid);
    for (const Label& u : cell.labels()) {
      for (const Label& v : g.out_neighbors(u)) {
        const auto nu = cell.node_of(u), nv = cell.node_of(v);
        if (!nu || !nv) continue;
        ++arcs;
        if (world.can_reach(*nu, *nv) || world.can_reach(*nv, *nu)) ++direct;
      }
    }
  }
  EXPECT_EQ(arcs, 4 * 24);
  EXPECT_GT(direct * 10, arcs * 5) << direct << "/" << arcs
                                   << " arcs directly connected";
}

}  // namespace
}  // namespace refer::core
