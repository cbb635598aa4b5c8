// Brute-force reference for World's geometric queries: the O(n) scans
// that the grid index and the neighbor cache must reproduce exactly --
// same ids, same order, same ties.  The references read the world only
// through its public per-node accessors, so they share no code with the
// fast paths; reachable_from collects the indexed path (visit_reachable)
// into a vector for comparison against them.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/geometry.hpp"
#include "sim/world.hpp"

namespace refer::test {

/// Every alive node within `from`'s range (or `range_override` when > 0),
/// excluding `from`, in ascending id order; empty when `from` is dead.
inline std::vector<sim::NodeId> reachable(sim::World& world, sim::NodeId from,
                                          double range_override = 0) {
  std::vector<sim::NodeId> out;
  if (!world.alive(from)) return out;
  const Point p = world.position(from);
  const double r = range_override > 0 ? range_override : world.range(from);
  for (sim::NodeId i = 0; static_cast<std::size_t>(i) < world.size(); ++i) {
    if (i == from || !world.alive(i)) continue;
    if (within_range(p, world.position(i), r)) out.push_back(i);
  }
  return out;
}

/// The indexed path: World::visit_reachable's ids, in visit order, into
/// `out` (cleared first).
inline void reachable_from(sim::World& world, sim::NodeId from,
                           std::vector<sim::NodeId>& out,
                           double range_override = 0) {
  out.clear();
  world.visit_reachable(
      from, [&out](sim::NodeId i) { out.push_back(i); }, range_override);
}

/// Allocating convenience form of the above.
inline std::vector<sim::NodeId> reachable_from(sim::World& world,
                                               sim::NodeId from,
                                               double range_override = 0) {
  std::vector<sim::NodeId> out;
  reachable_from(world, from, out, range_override);
  return out;
}

/// The alive actuator closest to `id` other than `id` itself, lowest id on
/// ties; -1 when there is none.
inline sim::NodeId closest_actuator(sim::World& world, sim::NodeId id) {
  const Point p = world.position(id);
  sim::NodeId best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (sim::NodeId i = 0; static_cast<std::size_t>(i) < world.size(); ++i) {
    if (i == id || !world.is_actuator(i) || !world.alive(i)) continue;
    const double d = distance_sq(p, world.position(i));
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

}  // namespace refer::test
