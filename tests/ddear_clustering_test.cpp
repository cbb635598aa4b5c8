// Oracle test for D-DEAR's cluster election (baselines::cluster_sensors):
// the snapshot-based election must pick exactly the heads, in exactly the
// order, and attach exactly the members that the direct formulation does
// -- one fresh k-hop BFS per sensor and a linear head-list lookup per
// candidate -- on random worlds at random instants.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "baselines/ddear.hpp"
#include "common/rng.hpp"
#include "sim/energy.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace refer::baselines {
namespace {

using sim::NodeId;

/// Alive sensors within `hops` forwarding hops of `node` (actuators never
/// relay), in BFS discovery order, `node` itself excluded.
std::vector<NodeId> khop_neighborhood(sim::World& world, NodeId node,
                                      int hops) {
  std::unordered_set<NodeId> seen{node};
  std::vector<NodeId> frontier{node}, out;
  for (int h = 0; h < hops; ++h) {
    std::vector<NodeId> next;
    for (NodeId at : frontier) {
      world.visit_reachable(at, [&](NodeId n) {
        if (world.is_actuator(n)) return;
        if (seen.insert(n).second) {
          next.push_back(n);
          out.push_back(n);
        }
      });
    }
    frontier = std::move(next);
  }
  return out;
}

struct ReferenceClustering {
  Clustering clusters;
  std::size_t elected = 0;  // heads before the isolated self-heads
};

/// The reference election: every alive sensor outscoring its whole k-hop
/// neighbourhood is a head; members take the closest head found by a
/// fresh BFS (first in BFS order on a tie) or become their own head.
ReferenceClustering reference_clustering(sim::World& world,
                                         const sim::EnergyTracker& energy,
                                         int radius_hops) {
  const auto sensors = world.all_of(sim::NodeKind::kSensor);
  ReferenceClustering out;
  auto& heads = out.clusters.heads;
  auto score = [&energy](NodeId n) {
    return std::pair(energy.battery(static_cast<std::size_t>(n)), n);
  };
  for (NodeId s : sensors) {
    if (!world.alive(s)) continue;
    bool best = true;
    for (NodeId n : khop_neighborhood(world, s, radius_hops)) {
      if (!world.alive(n)) continue;
      if (score(n) > score(s)) {
        best = false;
        break;
      }
    }
    if (best) heads.push_back(s);
  }
  out.elected = heads.size();
  auto& head_of = out.clusters.head_of;
  head_of.assign(world.size(), -1);
  for (NodeId s : sensors) {
    if (!world.alive(s)) continue;
    NodeId my_head = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (NodeId n : khop_neighborhood(world, s, radius_hops)) {
      if (std::find(heads.begin(), heads.end(), n) == heads.end()) continue;
      const double d = distance_sq(world.position(s), world.position(n));
      if (d < best_d) {
        best_d = d;
        my_head = n;
      }
    }
    if (std::find(heads.begin(), heads.end(), s) != heads.end()) my_head = s;
    if (my_head < 0) {
      heads.push_back(s);  // isolated: self-cluster
      my_head = s;
    }
    head_of[static_cast<std::size_t>(s)] = my_head;
  }
  return out;
}

/// What the random worlds exercised, so the test can insist on coverage.
struct Coverage {
  int dead_sensors = 0;
  int self_heads = 0;         // heads appended during attachment
  int joined_self_heads = 0;  // members attached to such a head
  int distance_ties = 0;      // members with two equally close heads
};

void record_coverage(sim::World& world, const ReferenceClustering& ref,
                     int radius, Coverage& cov) {
  const auto& heads = ref.clusters.heads;
  const auto& head_of = ref.clusters.head_of;
  std::vector<char> is_head(world.size(), 0), appended(world.size(), 0);
  for (std::size_t i = 0; i < heads.size(); ++i) {
    is_head[static_cast<std::size_t>(heads[i])] = 1;
    appended[static_cast<std::size_t>(heads[i])] = i >= ref.elected;
  }
  cov.self_heads += static_cast<int>(heads.size() - ref.elected);
  for (NodeId s : world.all_of(sim::NodeKind::kSensor)) {
    if (!world.alive(s)) {
      ++cov.dead_sensors;
      continue;
    }
    const NodeId h = head_of[static_cast<std::size_t>(s)];
    if (h == s) continue;
    if (appended[static_cast<std::size_t>(h)]) ++cov.joined_self_heads;
    const double d = distance_sq(world.position(s), world.position(h));
    for (NodeId n : khop_neighborhood(world, s, radius)) {
      if (n != h && is_head[static_cast<std::size_t>(n)] &&
          distance_sq(world.position(s), world.position(n)) == d) {
        ++cov.distance_ties;
        break;
      }
    }
  }
}

TEST(DDearClustering, SnapshotElectionMatchesKhopReference) {
  Coverage cov;
  constexpr int kWorlds = 160;
  for (int w = 0; w < kWorlds; ++w) {
    SCOPED_TRACE(testing::Message() << "world " << w);
    Rng rng(1000 + static_cast<std::uint64_t>(w));
    sim::Simulator sim;
    // Side lengths from dense (every sensor two hops from many) to sparse
    // (many sensors without a single neighbour).
    const double side = rng.uniform(150, 1400);
    sim::World world{{{0, 0}, {side, side}}, sim};
    const auto actuators = rng.range(0, 4);
    for (std::int64_t a = 0; a < actuators; ++a) {
      world.add_actuator({rng.uniform(0, side), rng.uniform(0, side)}, 250);
    }
    // Every fourth world puts static sensors on a 50 m lattice, so equal
    // distances -- the strict-< tie-break -- actually occur; every third
    // draws unequal ranges, so links are one-way.
    const bool lattice = w % 4 == 3;
    const bool unequal_ranges = w % 3 == 1;
    const auto sensors = rng.range(1, 140);
    for (std::int64_t i = 0; i < sensors; ++i) {
      Point p{rng.uniform(0, side), rng.uniform(0, side)};
      if (lattice) {
        p = {50.0 * static_cast<double>(i % 12),
             50.0 * static_cast<double>(i / 12)};
      }
      const double range = unequal_ranges ? rng.uniform(50, 150) : 100.0;
      if (!lattice && rng.chance(0.5)) {
        world.add_sensor(p, range, 0.0, 15.0, rng.split());
      } else {
        world.add_static_sensor(p, range);
      }
    }
    // Unequal batteries with many ties, so the id half of the score often
    // decides.
    sim::EnergyTracker energy;
    energy.resize(world.size());
    for (std::size_t n = 0; n < world.size(); ++n) {
      for (auto k = rng.range(0, 3); k > 0; --k) {
        energy.charge_tx(n, sim::EnergyBucket::kConstruction);
      }
    }
    for (NodeId s : world.all_of(sim::NodeKind::kSensor)) {
      if (rng.chance(0.15)) world.set_alive(s, false);
    }
    // A random instant: mobile sensors have left their start points.
    sim.run_until(rng.uniform(0, 60));
    const int radius = w % 5 == 0 ? static_cast<int>(rng.range(0, 3)) : 2;

    const ReferenceClustering want =
        reference_clustering(world, energy, radius);
    const Clustering got = cluster_sensors(world, energy, radius);
    ASSERT_EQ(got.heads, want.clusters.heads) << "radius " << radius;
    ASSERT_EQ(got.head_of, want.clusters.head_of) << "radius " << radius;
    record_coverage(world, want, radius, cov);
  }
  EXPECT_GT(cov.dead_sensors, 0);
  EXPECT_GT(cov.self_heads, 0);
  EXPECT_GT(cov.joined_self_heads, 0)
      << "no member ever joined a head appended mid-attachment";
  EXPECT_GT(cov.distance_ties, 0) << "no equidistant heads ever competed";
}

}  // namespace
}  // namespace refer::baselines
