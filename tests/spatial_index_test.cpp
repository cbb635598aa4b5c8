// The spatial index's one non-negotiable contract: grid-indexed queries
// return *exactly* what a linear scan returns -- same ids, same order,
// same ties -- on mobile and static worlds at arbitrary times.  The linear scan is
// the brute-force oracle in world_oracle.hpp.  Plus the route-cache
// equivalence.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "kautz/graph.hpp"
#include "kautz/route_cache.hpp"
#include "kautz/routing.hpp"
#include "sim/simulator.hpp"
#include "sim/spatial_index.hpp"
#include "sim/world.hpp"
#include "world_oracle.hpp"

namespace refer {
namespace {

using sim::NodeId;

/// Builds a randomized world: random area, a handful of static actuators,
/// a mix of mobile and static sensors with varying ranges.  An
/// `all_static` world places every sensor as static, so nothing can move
/// and the grid runs with zero drift slack.
struct RandomWorld {
  RandomWorld(std::uint64_t seed, sim::Simulator& sim, bool all_static)
      : rng(seed) {
    const double side = rng.uniform(300, 1500);
    world = std::make_unique<sim::World>(
        Rect{{0, 0}, {side, side}}, sim);
    const int n_act = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n_act; ++i) {
      world->add_actuator({rng.uniform(0, side), rng.uniform(0, side)},
                          rng.uniform(150, 300));
    }
    const int n_sensors = 30 + static_cast<int>(rng.below(120));
    for (int i = 0; i < n_sensors; ++i) {
      const Point p{rng.uniform(0, side), rng.uniform(0, side)};
      const double range = rng.uniform(60, 140);
      if (!all_static && rng.chance(0.7)) {
        world->add_sensor(p, range, 0, rng.uniform(0.5, 8), rng.split());
      } else {
        world->add_static_sensor(p, range);
      }
    }
    // A few dead nodes exercise the liveness filter.
    for (int i = 0; i < 3; ++i) {
      world->set_alive(
          static_cast<NodeId>(rng.below(world->size())), false);
    }
  }

  Rng rng;
  std::unique_ptr<sim::World> world;
};

TEST(SpatialIndexProperty, GridMatchesLinearScanOnRandomMobileWorlds) {
  int samples = 0;
  for (std::uint64_t seed = 1; samples < 120; ++seed) {
    sim::Simulator sim;
    // Every fourth world is all-static (zero drift slack); the choice
    // rides the seed index, so the mobile seeds keep their worlds.
    RandomWorld rw(seed * 2654435761u + 11, sim, seed % 4 == 0);
    sim::World& world = *rw.world;
    // Advance to a few monotonically increasing random times; query at
    // each and compare with the oracle exactly.
    double t = 0;
    for (int step = 0; step < 3; ++step, ++samples) {
      t += rw.rng.uniform(0, 40);
      sim.run_until(t);
      for (int q = 0; q < 8; ++q) {
        const auto from = static_cast<NodeId>(rw.rng.below(world.size()));
        const double range_override =
            rw.rng.chance(0.3) ? rw.rng.uniform(30, 400) : 0;

        const std::vector<NodeId> grid =
            test::reachable_from(world, from, range_override);
        const NodeId grid_act = world.closest_actuator(from);
        const std::vector<NodeId> linear =
            test::reachable(world, from, range_override);
        const NodeId linear_act = test::closest_actuator(world, from);

        ASSERT_EQ(grid, linear)
            << "seed=" << seed << " t=" << t << " from=" << from
            << " override=" << range_override;
        ASSERT_EQ(grid_act, linear_act)
            << "seed=" << seed << " t=" << t << " from=" << from;
      }
    }
  }
}

TEST(SpatialIndexProperty, SurvivesLivenessFlipsAndLateNodeAdds) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  Rng rng(77);
  world.add_actuator({300, 300}, 250);
  for (int i = 0; i < 60; ++i) {
    world.add_sensor({rng.uniform(0, 600), rng.uniform(0, 600)}, 100, 0, 4,
                     rng.split());
  }
  sim.run_until(5);
  (void)test::reachable_from(world, 0);  // force an index build
  // Nodes added after the build must show up in subsequent queries.
  const NodeId late = world.add_static_sensor({310, 310}, 100);
  world.set_alive(3, false);
  sim.run_until(9);
  for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
       ++from) {
    ASSERT_EQ(test::reachable_from(world, from), test::reachable(world, from))
        << "from=" << from;
  }
  EXPECT_EQ(world.closest_actuator(late), 0);
  EXPECT_GE(world.index_stats().rebuilds, 1u);
}

TEST(SpatialIndexEdgeCases, NodesExactlyOnCellBoundariesMatchLinearScan) {
  // With max range 100 on a 600 m side the grid cell is 25 m, so every
  // multiple of 25 sits exactly on a cell boundary; (600, 600) sits on
  // the outer area boundary and must clamp into the last cell, not read
  // past the grid.  Distances of exactly one range (100 m) also pin the
  // within_range boundary.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  world.add_actuator({300, 300}, 100);
  for (double x = 0; x <= 600; x += 75) {
    for (double y = 0; y <= 600; y += 75) {
      world.add_static_sensor({x, y}, 100);
    }
  }
  for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
       ++from) {
    const auto grid = test::reachable_from(world, from);
    ASSERT_EQ(grid, test::reachable(world, from)) << "from=" << from;
    ASSERT_EQ(world.closest_actuator(from),
              test::closest_actuator(world, from))
        << "from=" << from;
    // Neighbours at exactly 100 m (one range) are in range: the grid on
    // a 75 m pitch guarantees none, but the axis-aligned 75 m and
    // diagonal ~106 m neighbours pin both sides of the boundary.
    EXPECT_FALSE(grid.empty()) << "from=" << from;
  }
}

TEST(SpatialIndexEdgeCases, ExactRangeDistanceIsInRangeOnBothPaths) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {400, 400}}, sim);
  const NodeId a = world.add_static_sensor({100, 100}, 100);
  const NodeId b = world.add_static_sensor({200, 100}, 100);  // d == range
  const NodeId c = world.add_static_sensor({201, 100}, 100);  // d > range
  EXPECT_EQ(test::reachable_from(world, a), (std::vector<NodeId>{b}));
  EXPECT_EQ(test::reachable(world, a), (std::vector<NodeId>{b}));
  EXPECT_TRUE(world.can_reach(a, b));
  EXPECT_FALSE(world.can_reach(a, c));
}

TEST(SpatialIndexEdgeCases, ZeroRangeWorldFallsBackToLinearScan) {
  // All ranges zero: no usable index can exist.  Queries must fall back
  // to the linear scan and return nothing -- except for co-located
  // nodes, which sit at distance exactly 0 <= range 0.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {100, 100}}, sim);
  const NodeId a = world.add_static_sensor({10, 10}, 0);
  const NodeId b = world.add_static_sensor({10, 10}, 0);  // co-located
  world.add_static_sensor({20, 10}, 0);
  EXPECT_EQ(test::reachable_from(world, a), (std::vector<NodeId>{b}));
  EXPECT_EQ(world.closest_actuator(a), -1);
  EXPECT_EQ(world.index_stats().rebuilds, 0u)
      << "a zero-range world must not build a grid";
  // A positive override on the same world still works (and, with every
  // binned range zero, still goes through the linear path).
  EXPECT_EQ(test::reachable_from(world, a, 50.0).size(), 2u);
}

TEST(SpatialIndexEdgeCases, ZeroRangeNodeAmongRangedNodesSeesOnlyCoLocated) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {100, 100}}, sim);
  const NodeId mute = world.add_static_sensor({50, 50}, 0);
  const NodeId twin = world.add_static_sensor({50, 50}, 80);
  world.add_static_sensor({60, 50}, 80);
  // Range 0 reaches exactly the co-located node, as in the linear scan.
  EXPECT_EQ(test::reachable_from(world, mute), (std::vector<NodeId>{twin}));
  EXPECT_EQ(test::reachable(world, mute), (std::vector<NodeId>{twin}));
  // And the ranged nodes still see the zero-range node.
  EXPECT_EQ(test::reachable_from(world, twin).size(), 2u);
  EXPECT_EQ(test::reachable_from(world, twin), test::reachable(world, twin));
}

#ifndef NDEBUG
TEST(SpatialIndexEdgeCases, UpdateOutsideTheNodeUniverseAsserts) {
  // start_build fixes the id universe; binning an id past it is a
  // contract violation that must assert (not silently corrupt slots_).
  // World can never trigger this (add_node marks the index dirty, so the
  // next query rebuilds with the new universe) -- this pins the guard
  // that keeps that true.
  sim::SpatialIndex index;
  index.start_build(Rect{{0, 0}, {100, 100}}, 10, 0, 0, 2);
  EXPECT_DEATH(index.update(5, {1, 1}, 0, 0), "slots_");
}
#endif

TEST(RouteCache, AgreesWithDisjointRoutesAndCountsHits) {
  kautz::RouteCache cache(64);
  std::vector<kautz::Route> out;
  for (const auto [d, k] : {std::pair{2, 3}, {3, 3}, {4, 4}}) {
    const kautz::Graph g(d, k);
    const auto n = g.node_count();
    for (std::uint64_t i = 0; i < 200; ++i) {
      const kautz::Label u =
          kautz::Label::from_index((i * 131) % n, d, k);
      kautz::Label v =
          kautz::Label::from_index((i * 7919 + 13) % n, d, k);
      if (v == u) v = kautz::Label::from_index((i * 7919 + 14) % n, d, k);
      cache.lookup(d, u, v, out);
      const auto expected = kautz::disjoint_routes(d, u, v);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t r = 0; r < out.size(); ++r) {
        EXPECT_EQ(out[r].successor, expected[r].successor);
        EXPECT_EQ(out[r].path_class, expected[r].path_class);
        EXPECT_EQ(out[r].nominal_length, expected[r].nominal_length);
        EXPECT_EQ(out[r].forced_second_hop, expected[r].forced_second_hop);
      }
      // A repeat of the same pair must hit.
      const std::uint64_t hits_before = cache.hits();
      cache.lookup(d, u, v, out);
      EXPECT_EQ(cache.hits(), hits_before + 1);
    }
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

}  // namespace
}  // namespace refer
