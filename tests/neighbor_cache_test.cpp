// The neighbor cache's one non-negotiable contract: cached reachable
// queries return *exactly* what the brute-force scan in world_oracle.hpp
// returns -- same ids, same order -- on mobile and static worlds, across
// row reuse, node kills and any number of query radii.  Plus the
// epoch/counter semantics, the row widths the drift slack implies, and
// the zero-steady-state-allocation pin on the cached scan path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "sim/neighbor_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"
#include "world_oracle.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting hooks for the zero-allocation assertion.  Only counts; all
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

using sim::NodeId;

template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load();
  body();
  return g_heap_allocs.load() - before;
}

/// Randomized world mirroring the spatial-index property fixture: random
/// area, static actuators, mixed mobile/static sensors, a few dead nodes.
/// An `all_static` world places every sensor as static (zero drift
/// slack: rows are exact in-range sets and anchors are live positions).
struct RandomWorld {
  RandomWorld(std::uint64_t seed, sim::Simulator& sim, bool all_static)
      : rng(seed) {
    const double side = rng.uniform(300, 1500);
    world = std::make_unique<sim::World>(Rect{{0, 0}, {side, side}}, sim);
    const int n_act = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n_act; ++i) {
      world->add_actuator({rng.uniform(0, side), rng.uniform(0, side)},
                          rng.uniform(150, 300));
    }
    // Two discrete sensor range classes per world -- deployments ship a
    // handful of radio profiles, not a continuum, and the cache's
    // one-table-per-radius layout suits that.  Continuous
    // one-off ranges still appear via range_override in the queries.
    const double range_class[2] = {rng.uniform(60, 140),
                                   rng.uniform(60, 140)};
    const int n_sensors = 30 + static_cast<int>(rng.below(120));
    for (int i = 0; i < n_sensors; ++i) {
      const Point p{rng.uniform(0, side), rng.uniform(0, side)};
      const double range = range_class[rng.below(2)];
      if (!all_static && rng.chance(0.7)) {
        world->add_sensor(p, range, 0, rng.uniform(0.5, 8), rng.split());
      } else {
        world->add_static_sensor(p, range);
      }
    }
    for (int i = 0; i < 3; ++i) {
      world->set_alive(static_cast<NodeId>(rng.below(world->size())), false);
    }
  }

  Rng rng;
  std::unique_ptr<sim::World> world;
};

TEST(NeighborCacheProperty, CachedMatchesUncachedOnRandomMobileWorlds) {
  std::uint64_t total_hits = 0;
  int samples = 0;
  for (std::uint64_t seed = 1; samples < 120; ++seed) {
    sim::Simulator sim;
    // Every fourth world is all-static, chosen by seed index so the
    // mobile seeds keep their worlds.
    RandomWorld rw(seed * 2654435761u + 23, sim, seed % 4 == 0);
    sim::World& world = *rw.world;
    double t = 0;
    for (int step = 0; step < 3; ++step, ++samples) {
      // Mostly small advances, so rows built on one query survive into
      // the next ones (the reuse the contract is really about); the
      // occasional large jump forces re-bins and row rebuilds.
      t += rw.rng.chance(0.3) ? rw.rng.uniform(0, 40) : rw.rng.uniform(0, 1);
      sim.run_until(t);
      if (rw.rng.chance(0.25)) {
        // Liveness churn mid-stream: kills (and revivals) must be
        // reflected by cached rows without any invalidation.
        const auto victim = static_cast<NodeId>(rw.rng.below(world.size()));
        world.set_alive(victim, !world.alive(victim));
      }
      for (int q = 0; q < 8; ++q) {
        // Repeat each node a few times so later queries hit cached rows.
        const auto from = static_cast<NodeId>(
            rw.rng.below(world.size() / 2 + 1));
        const double range_override =
            rw.rng.chance(0.3) ? rw.rng.uniform(30, 400) : 0;

        const std::vector<NodeId> cached =
            test::reachable_from(world, from, range_override);
        // Same (from, range) again within the same epoch: a guaranteed
        // row hit, and it must reproduce the just-built row exactly.
        ASSERT_EQ(cached, test::reachable_from(world, from, range_override))
            << "seed=" << seed << " t=" << t << " from=" << from
            << " override=" << range_override;
        // The oracle reads positions only, so rows (and the index) are
        // left untouched and hits accumulate across iterations.
        ASSERT_EQ(cached, test::reachable(world, from, range_override))
            << "seed=" << seed << " t=" << t << " from=" << from
            << " override=" << range_override;
      }
    }
    total_hits += world.neighbor_cache_stats().hits;
  }
  // The property is vacuous if every query missed; the repeat-queries
  // above guarantee plenty of row reuse.
  EXPECT_GT(total_hits, 100u);
}

TEST(NeighborCacheProperty, KillsNeedNoInvalidationToStayExact) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  Rng rng(41);
  world.add_actuator({300, 300}, 250);
  for (int i = 0; i < 80; ++i) {
    world.add_sensor({rng.uniform(0, 600), rng.uniform(0, 600)}, 100, 0, 3,
                     rng.split());
  }
  sim.run_until(2);
  const std::vector<NodeId> before = test::reachable_from(world, 1);
  ASSERT_FALSE(before.empty());
  const NodeId victim = before.front();
  const std::uint64_t inv_before =
      world.neighbor_cache_stats().invalidations;

  // Killing a neighbor must drop it from the *cached* row immediately --
  // dead nodes stay binned and are filtered by the exact pass, so no
  // epoch bump is needed or expected.
  world.set_alive(victim, false);
  const std::vector<NodeId> after = test::reachable_from(world, 1);
  EXPECT_EQ(world.neighbor_cache_stats().invalidations, inv_before);
  EXPECT_EQ(after.size(), before.size() - 1);
  for (const NodeId id : after) EXPECT_NE(id, victim);

  world.set_alive(victim, true);
  EXPECT_EQ(test::reachable_from(world, 1), before);
}

TEST(NeighborCacheProperty, ReentrantQueriesStayExact) {
  // Flood handlers query the world from inside a visit: the nested
  // queries fill rows into the same pools the outer walk is reading, and
  // may relocate them.  Both levels must still match the oracle.
  int nested = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    RandomWorld rw(seed * 97 + 5, sim, seed % 4 == 0);
    sim::World& world = *rw.world;
    double t = 0;
    for (int step = 0; step < 4; ++step) {
      sim.run_until(t += rw.rng.uniform(0, 2));
      for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
           from += 3) {
        const double outer_range =
            rw.rng.chance(0.5) ? 0 : rw.rng.uniform(30, 400);
        std::vector<NodeId> outer;
        world.visit_reachable(
            from,
            [&](NodeId j) {
              outer.push_back(j);
              const double inner_range =
                  rw.rng.chance(0.5) ? 0 : rw.rng.uniform(30, 400);
              ASSERT_EQ(test::reachable_from(world, j, inner_range),
                        test::reachable(world, j, inner_range))
                  << "seed=" << seed << " t=" << t << " inner=" << j;
              ++nested;
            },
            outer_range);
        ASSERT_EQ(outer, test::reachable(world, from, outer_range))
            << "seed=" << seed << " t=" << t << " from=" << from;
      }
    }
  }
  EXPECT_GT(nested, 1000);
}

TEST(NeighborCacheProperty, StaticLatticeAtExactRangeStaysExact) {
  // A 50 m lattice with range 100 puts every axis neighbour two steps
  // away at exactly one range, and one step away at exactly the 50 m
  // override.  Those pairs sit on the anchor shortcut's band edges, so
  // the bands' epsilon must send them to the exact check -- both with
  // zero slack (nothing can move) and with the 5 m slack a single mobile
  // node switches on.
  for (const bool with_mobile : {false, true}) {
    sim::Simulator sim;
    sim::World world(Rect{{0, 0}, {600, 600}}, sim);
    for (double x = 0; x <= 600; x += 50) {
      for (double y = 0; y <= 600; y += 50) {
        world.add_static_sensor({x, y}, 100);
      }
    }
    if (with_mobile) world.add_sensor({310, 290}, 100, 0.5, 8, Rng(3));
    world.set_alive(20, false);
    double t = 0;
    for (int step = 0; step < 3; ++step) {
      sim.run_until(t += 5);
      for (int rep = 0; rep < 3; ++rep) {  // build, then hit, each row
        for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
             ++from) {
          for (const double range_override : {0.0, 50.0}) {
            ASSERT_EQ(test::reachable_from(world, from, range_override),
                      test::reachable(world, from, range_override))
                << "mobile=" << with_mobile << " t=" << t
                << " from=" << from << " override=" << range_override;
          }
        }
      }
    }
    EXPECT_GT(world.neighbor_cache_stats().hits, world.size());
  }
}

TEST(NeighborCacheProperty, VisitorsSeeTheSetAsOfTheCall) {
  // A query's set is settled before its first visit.  A visitor that
  // kills a neighbour it has not reached yet still receives it, and the
  // kill shows from the next query on -- both when the visit reads a
  // freshly built row and when it reads a cached one.
  int kills = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim;
    RandomWorld rw(seed * 131 + 7, sim, seed % 4 == 0);
    sim::World& world = *rw.world;
    sim.run_until(rw.rng.uniform(0, 5));
    for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
         ++from) {
      for (int rep = 0; rep < 2; ++rep) {  // build the row, then hit it
        const std::vector<NodeId> expected = test::reachable(world, from);
        if (expected.size() < 2) break;
        const NodeId victim = expected.back();
        std::vector<NodeId> seen;
        world.visit_reachable(from, [&](NodeId j) {
          if (seen.empty()) world.set_alive(victim, false);
          seen.push_back(j);
        });
        ASSERT_EQ(seen, expected)
            << "seed=" << seed << " from=" << from << " rep=" << rep;
        ASSERT_EQ(test::reachable_from(world, from),
                  test::reachable(world, from))
            << "seed=" << seed << " from=" << from << " rep=" << rep;
        world.set_alive(victim, true);
        ++kills;
      }
    }
  }
  EXPECT_GT(kills, 1000);
}

TEST(NeighborCacheProperty, MobileCandidatesOnTheBandEdgesStayExact) {
  // Mobile candidates start exactly on the settle pass's band edges
  // around the querier: r - slack (the accept band's edge), r (the query
  // range) and r + slack (the reject band's edge), along both axes and
  // both diagonals.  At t = 0 every anchor is a live position, so each
  // candidate sits on a boundary; then they drift across the bands,
  // first within the row's epoch and later across re-bins.  Every
  // query, fresh row or cached, must equal the brute-force scan.
  constexpr double kRange = 100;
  constexpr double kSlack = 0.05 * kRange;  // 5 % of the smallest range
  const double diag = 1 / std::sqrt(2.0);
  const Point dirs[] = {{1, 0},     {0, 1},     {-1, 0},     {0, -1},
                        {diag, diag}, {-diag, diag}, {-diag, -diag},
                        {diag, -diag}};
  for (const bool mobile_querier : {false, true}) {
    sim::Simulator sim;
    sim::World world(Rect{{0, 0}, {600, 600}}, sim);
    const Point c{300, 300};
    Rng rng(5);
    const NodeId querier =
        mobile_querier ? world.add_sensor(c, kRange, 0.5, 4, rng.split())
                       : world.add_static_sensor(c, kRange);
    for (const double d : {kRange - kSlack, kRange, kRange + kSlack}) {
      for (const Point u : dirs) {
        world.add_sensor({c.x + d * u.x, c.y + d * u.y}, kRange, 0.5, 4,
                         rng.split());
      }
    }
    // On the axes the distances are exact: the r - slack and r
    // candidates are in range at t = 0 and the r + slack ones are not.
    const std::vector<NodeId> at_start = test::reachable(world, querier);
    for (const NodeId axis : {1, 2, 3, 4, 9, 10, 11, 12}) {
      EXPECT_NE(std::find(at_start.begin(), at_start.end(), axis),
                at_start.end());
    }
    for (const NodeId axis : {17, 18, 19, 20}) {
      EXPECT_EQ(std::find(at_start.begin(), at_start.end(), axis),
                at_start.end());
    }
    for (const double t : {0.0, 0.05, 0.3, 1.0, 2.5, 6.0, 15.0}) {
      sim.run_until(t);
      for (int rep = 0; rep < 2; ++rep) {  // build the row, then hit it
        for (const double range_override :
             {0.0, kRange - kSlack, kRange + kSlack}) {
          ASSERT_EQ(test::reachable_from(world, querier, range_override),
                    test::reachable(world, querier, range_override))
              << "mobile querier=" << mobile_querier << " t=" << t
              << " override=" << range_override;
        }
      }
    }
    EXPECT_GT(world.neighbor_cache_stats().hits, 0u);
    EXPECT_GT(world.index_stats().rebins, world.size());  // drifted past
  }
}

/// Run observer that, every 0.25 s of simulated time, compares every
/// node's reachable set and closest actuator with the brute-force scan,
/// so rows built by real protocol traffic are read back and checked.
class OracleProbe : public harness::RunObserver {
 public:
  void on_run_start(const harness::RunContext& ctx) override {
    sim_ = ctx.sim;
    world_ = ctx.world;
    schedule();
  }

  int probes = 0;
  std::string mismatch;

 private:
  void schedule() {
    sim_->schedule_in(0.25, [this] {
      ++probes;
      for (NodeId i = 0; static_cast<std::size_t>(i) < world_->size(); ++i) {
        if (!mismatch.empty()) break;
        if (test::reachable_from(*world_, i) != test::reachable(*world_, i) ||
            world_->closest_actuator(i) != test::closest_actuator(*world_, i)) {
          mismatch = "node " + std::to_string(i) + " at t=" +
                     std::to_string(sim_->now());
        }
      }
      if (probes < 160) schedule();
    });
  }

  sim::Simulator* sim_ = nullptr;
  sim::World* world_ = nullptr;
};

TEST(NeighborCacheProperty, RealRunsMatchTheBruteForceScan) {
  // Mobility, fault churn, floods and saturated CSMA scans fill the rows
  // here, not a test loop; both routing policies query differently.
  harness::Scenario sc;
  sc.n_sensors = 110;
  sc.warmup_s = 5;
  sc.measure_s = 30;
  sc.faulty_nodes = 4;
  sc.packets_per_second = 40;
  sc.seed = 29;
  for (const auto& [kind, policy] :
       {std::pair{harness::SystemKind::kRefer, harness::RoutingPolicy::kGreedy},
        std::pair{harness::SystemKind::kRefer,
                  harness::RoutingPolicy::kRegular},
        std::pair{harness::SystemKind::kKautzOverlay,
                  harness::RoutingPolicy::kGreedy}}) {
    sc.routing_policy = policy;
    OracleProbe probe;
    sc.observer = &probe;
    ASSERT_TRUE(harness::run_once(kind, sc).build_ok);
    EXPECT_EQ(probe.mismatch, "") << harness::to_string(kind);
    EXPECT_GE(probe.probes, 100) << harness::to_string(kind);
  }
}

TEST(NeighborCacheCounters, HitsRebuildsAndInvalidationsTrackEpochs) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {500, 500}}, sim);
  // Static world: after the initial build, nothing ever re-bins.
  for (int i = 0; i < 40; ++i) {
    world.add_static_sensor({12.5 * i, 250.0}, 120);
  }
  (void)test::reachable_from(world, 0);  // forces the index build + first row
  const auto& stats = world.neighbor_cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);  // the build's own epoch bump
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.hits, 0u);

  (void)test::reachable_from(world, 0);  // same node, same range class: a hit
  (void)test::reachable_from(world, 0);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.rebuilds, 1u);

  (void)test::reachable_from(world, 7);  // new node: its row is built once
  (void)test::reachable_from(world, 7);
  EXPECT_EQ(stats.rebuilds, 2u);
  EXPECT_EQ(stats.hits, 3u);

  // A distinct range class gets its own row even for a seen node.
  (void)test::reachable_from(world, 0, /*range_override=*/200);
  EXPECT_EQ(stats.rebuilds, 3u);
  EXPECT_EQ(stats.invalidations, 1u);  // still no re-bins

  // Adding a node dirties the index: full rebuild, fresh epoch, every
  // row is rebuilt on next use and the new node shows up.
  const NodeId late = world.add_static_sensor({0.0, 255.0}, 120);
  const std::vector<NodeId> row0 = test::reachable_from(world, 0);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.rebuilds, 4u);
  EXPECT_NE(std::find(row0.begin(), row0.end(), late), row0.end());
}

TEST(NeighborCacheCounters, MobilityRebinsInvalidate) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {400, 400}}, sim);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    world.add_sensor({rng.uniform(0, 400), rng.uniform(0, 400)}, 100, 1, 3,
                     rng.split());
  }
  (void)test::reachable_from(world, 0);
  (void)test::reachable_from(world, 0);
  const std::uint64_t inv0 = world.neighbor_cache_stats().invalidations;
  // Far past every slack deadline (slack/speed <= 5 m / 1 mps): the next
  // query's revalidate re-bins movers and must expire cached rows, so
  // the row is built again.
  sim.run_until(30);
  (void)test::reachable_from(world, 0);
  EXPECT_GT(world.neighbor_cache_stats().invalidations, inv0);
  EXPECT_EQ(world.neighbor_cache_stats().rebuilds, 2u);
}

/// Number of nodes -- dead ones and `from` itself included -- whose
/// position lies within `radius` of `from`'s: the exact size of a row
/// collected around `from` from exact anchors.
std::uint64_t nodes_within(sim::World& world, NodeId from, double radius) {
  const Point p = world.position(from);
  std::uint64_t count = 0;
  for (NodeId j = 0; static_cast<std::size_t>(j) < world.size(); ++j) {
    if (within_range(p, world.position(j), radius)) ++count;
  }
  return count;
}

/// The evaluation's mix: 100 m sensors (mobile or static) spread over
/// the area around five 250 m actuators, plus a few dead sensors.
void populate(sim::World& world, bool mobile) {
  Rng rng(13);
  for (const Point p : {Point{150, 150}, Point{450, 150}, Point{300, 300},
                        Point{150, 450}, Point{450, 450}}) {
    world.add_actuator(p, 250);
  }
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.uniform(0, 600), rng.uniform(0, 600)};
    if (mobile) {
      world.add_sensor(p, 100, 0, 4, rng.split());
    } else {
      world.add_static_sensor(p, 100);
    }
  }
  for (const NodeId dead : {7, 42, 133}) world.set_alive(dead, false);
}

TEST(NeighborCacheProperty, EveryQueryRadiusGetsCachedRows) {
  // One table per radius the run queries, however many: a dozen
  // distinct overrides plus the sensors' own range each build a row on
  // first use and serve the repeat query from it, exactly.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  populate(world, /*mobile=*/true);
  std::vector<double> radii = {0.0};  // 0: the node's own range
  for (int k = 0; k < 12; ++k) radii.push_back(40.0 + 25.0 * k);
  const auto& stats = world.neighbor_cache_stats();
  double t = 0;
  for (int step = 0; step < 3; ++step) {
    sim.run_until(t += 7);
    for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
         from += 5) {
      if (!world.alive(from)) continue;  // a dead sender queries nothing
      for (const double r : radii) {
        const std::vector<NodeId> first = test::reachable_from(world, from, r);
        const std::uint64_t hits = stats.hits;
        const std::vector<NodeId> again = test::reachable_from(world, from, r);
        ASSERT_EQ(stats.hits, hits + 1)
            << "t=" << t << " from=" << from << " radius=" << r;
        ASSERT_EQ(again, first);
        ASSERT_EQ(again, test::reachable(world, from, r))
            << "t=" << t << " from=" << from << " radius=" << r;
      }
    }
  }
}

TEST(NeighborCacheCounters, StaticRowsHoldExactlyTheInRangeSet) {
  // Nothing can move, so the drift slack is zero: each first query
  // builds its row from exactly the nodes within the query range --
  // dead nodes and the querier included, since the exact pass filters
  // those -- and not one candidate more.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  populate(world, /*mobile=*/false);
  std::uint64_t expected = 0;
  std::uint64_t queries = 0;
  for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
       ++from) {
    if (!world.alive(from)) continue;  // a dead sender queries nothing
    (void)test::reachable_from(world, from);
    expected += nodes_within(world, from, world.range(from));
    ++queries;
  }
  EXPECT_EQ(world.index_stats().queries, queries);
  EXPECT_EQ(world.index_stats().candidates, expected);
  EXPECT_EQ(world.index_stats().rebins, world.size());  // the build only
}

TEST(NeighborCacheCounters, MobileRowsWidenBySensorScaleSlack) {
  // With movers the slack is 5 % of the smallest range (5 m for 100 m
  // sensors, whatever the 250 m actuators reach), and a row is collected
  // three slack budgets wide.  At t = 0 every anchor is still exact, so
  // each first query's row is exactly the nodes within r + 3 * slack.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  populate(world, /*mobile=*/true);
  const double widen = 3 * (0.05 * 100.0);
  std::uint64_t expected = 0;
  for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
       ++from) {
    if (!world.alive(from)) continue;
    (void)test::reachable_from(world, from);
    expected += nodes_within(world, from, world.range(from) + widen);
  }
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(world.index_stats().candidates, expected);
}

TEST(NeighborCacheSteadyState, HitPathDoesNotAllocate) {
  // End-to-end pin on the cached scan path through World: once rows are
  // warm, every repeat query within an epoch -- the shape the CSMA
  // medium scan produces thousands of times per re-bin -- must be a pure
  // array walk.  Time is held still during the measurement: advancing it
  // belongs to the *grid's* re-bin machinery (cell vectors can hit new
  // high-water marks as nodes cluster), which is outside this contract.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {500, 500}}, sim);
  Rng rng(19);
  world.add_actuator({250, 250}, 250);
  for (int i = 0; i < 120; ++i) {
    world.add_sensor({rng.uniform(0, 500), rng.uniform(0, 500)}, 100, 0.5, 3,
                     rng.split());
  }
  std::vector<NodeId> out;
  const auto n = static_cast<NodeId>(world.size());
  double t = 0;
  // Warm across epochs so scratch buffers, the sort bitmap, row pools
  // and `out` reach their high-water capacities.
  for (int step = 0; step < 100; ++step) {
    sim.run_until(t += 0.5);
    for (NodeId from = 0; from < n; ++from) {
      test::reachable_from(world, from, out);
      test::reachable_from(world, from, out, /*range_override=*/180);
    }
  }
  const std::uint64_t hits_before = world.neighbor_cache_stats().hits;

  const std::uint64_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 50; ++rep) {
      for (NodeId from = 0; from < n; ++from) {
        test::reachable_from(world, from, out);
        test::reachable_from(world, from, out, /*range_override=*/180);
      }
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "cached medium scans must not touch the heap at steady state";
  // The last warm-up round built every (from, range) row at this very
  // time, so no re-bin intervenes and every measured query is a hit.
  EXPECT_EQ(world.neighbor_cache_stats().hits,
            hits_before + 50u * 2u * static_cast<std::uint64_t>(n));
}

TEST(NeighborCacheSteadyState, RowRebuildsRecyclePoolsWithoutAllocating) {
  // Cache-level pin on the miss path: after an invalidation, re-storing
  // a full epoch's worth of rows must reuse the pool and per-node
  // arrays' capacity -- the allocation cost of a rebuild is paid once,
  // at warmup, never per epoch.
  constexpr std::size_t kNodes = 200;
  sim::NeighborCache cache;
  cache.reset(kNodes);
  std::vector<NodeId> row;
  row.reserve(64);
  const auto fill_row = [&](NodeId id) {
    row.clear();
    for (NodeId j = 0; j < 48; ++j) {
      row.push_back((id + j) % static_cast<NodeId>(kNodes));
    }
  };
  const auto anchor_of = [](NodeId id) {
    return Point{static_cast<double>(id), 0.0};
  };
  // Warmup epoch: tables created, pools and offset arrays sized.
  for (NodeId id = 0; id < static_cast<NodeId>(kNodes); ++id) {
    fill_row(id);
    (void)cache.store(id, 100.0, row, anchor_of);
    (void)cache.store(id, 250.0, row, anchor_of);
  }

  const std::uint64_t allocs = allocations_during([&] {
    sim::NeighborCache::Row view;
    for (int epoch = 0; epoch < 20; ++epoch) {
      cache.invalidate();
      for (NodeId id = 0; id < static_cast<NodeId>(kNodes); ++id) {
        ASSERT_FALSE(cache.lookup(id, 100.0, view));  // epoch killed it
        fill_row(id);
        (void)cache.store(id, 100.0, row, anchor_of);
        (void)cache.store(id, 250.0, row, anchor_of);
        ASSERT_TRUE(cache.lookup(id, 100.0, view));
        ASSERT_EQ(view.len, 48u);
      }
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "epoch turnover must recycle pools, not reallocate them";
}

}  // namespace
}  // namespace refer
