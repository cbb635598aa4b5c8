#include "refer/oracle_embedding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/logging.hpp"
#include "kautz/graph.hpp"
#include "refer/delaunay.hpp"

namespace refer::core {

using sim::EnergyBucket;
using sim::NodeId;

namespace {

constexpr double kRingRadiusFactor = 0.8;  ///< ring radius vs. cell inradius
constexpr std::size_t kControlBytes = 48;

}  // namespace

bool oracle_embed(sim::World& world, sim::Channel& channel,
                  Topology& topology, const OracleEmbeddingConfig& config) {
  const kautz::Graph graph(config.d, config.k);
  const auto actuators = world.all_of(sim::NodeKind::kActuator);
  if (actuators.size() < 3) return false;

  std::vector<Point> positions;
  double min_range = world.range(actuators.front());
  for (NodeId a : actuators) {
    positions.push_back(world.position(a));
    min_range = std::min(min_range, world.range(a));
  }
  const auto triangles =
      filter_by_edge_length(delaunay(positions), positions, min_range);
  if (triangles.empty()) {
    log_warn("oracle_embed: no valid actuator triangulation");
    return false;
  }
  const auto sensors_needed =
      triangles.size() * (graph.node_count() - 3);
  std::size_t sensors_alive = 0;
  for (NodeId s : world.all_of(sim::NodeKind::kSensor)) {
    sensors_alive += world.alive(s);
  }
  if (sensors_alive < sensors_needed && !config.allow_partial) {
    log_warn("oracle_embed: need %zu sensors for %zu K(%d,%d) cells, have %zu",
             sensors_needed, triangles.size(), config.d, config.k,
             sensors_alive);
    return false;
  }

  topology.set_degree(config.d);
  topology.set_diameter(config.k);
  const auto cycle = graph.hamiltonian_cycle();  // node_count + 1 entries
  const std::size_t n = graph.node_count();
  std::unordered_set<NodeId> taken;

  for (const Triangle& t : triangles) {
    const std::vector<Point> corners{
        positions[static_cast<std::size_t>(t[0])],
        positions[static_cast<std::size_t>(t[1])],
        positions[static_cast<std::size_t>(t[2])]};
    const Point center = centroid(corners);
    const Cid cid = topology.add_cell(center);
    Cell& cell = topology.cell(cid);

    // Corner labels: thirds of the Hamiltonian cycle, pinned to the
    // actuators.
    const std::array<std::size_t, 3> corner_idx{0, n / 3, 2 * n / 3};
    std::vector<Label> corner_labels;
    for (std::size_t i = 0; i < 3; ++i) {
      const Label label = cycle[corner_idx[i]];
      const NodeId actuator =
          actuators[static_cast<std::size_t>(t[i])];
      cell.bind(label, actuator);
      corner_labels.push_back(label);
      topology.set_role(actuator, Role::kActuator);
      topology.set_actuator_label(actuator, label);
      topology.add_actuator_cell(actuator, cid);
      channel.broadcast(actuator, kControlBytes,
                        EnergyBucket::kConstruction, nullptr);
    }
    cell.set_corner_labels(corner_labels);

    // Ring layout: cycle position i at angle 2*pi*i/n around the cell
    // centre; radius proportional to the distance to the nearest corner.
    double inradius = std::numeric_limits<double>::infinity();
    for (const Point& c : corners) {
      inradius = std::min(inradius, distance(center, c));
    }
    const double radius = inradius * kRingRadiusFactor;
    const auto all_sensors = world.all_of(sim::NodeKind::kSensor);
    for (std::size_t i = 0; i < n; ++i) {
      const Label& label = cycle[i];
      if (cell.node_of(label)) continue;  // a pinned corner
      const double angle =
          2 * 3.14159265358979323846 * static_cast<double>(i) /
          static_cast<double>(n);
      const Point ideal{center.x + radius * std::cos(angle),
                        center.y + radius * std::sin(angle)};
      NodeId best = -1;
      double best_d = std::numeric_limits<double>::infinity();
      for (NodeId s : all_sensors) {
        if (!world.alive(s) || taken.contains(s)) continue;
        const double d = distance_sq(world.position(s), ideal);
        if (d < best_d) {
          best_d = d;
          best = s;
        }
      }
      if (best < 0) {
        if (config.allow_partial) continue;  // leave the label unbound
        return false;
      }
      taken.insert(best);
      cell.bind(label, best);
      topology.set_sensor_binding(best, FullId{cid, label});
      topology.set_role(best, Role::kActive);
      // ID notification from the cell's first actuator.
      channel.unicast(*cell.corner_actuators()[0], best,
                      kControlBytes, EnergyBucket::kConstruction,
                      nullptr);
    }
  }

  // Wait/sleep roles and the CAN, as in the protocol embedding.
  const auto active = topology.active_sensors();
  for (NodeId s : world.all_of(sim::NodeKind::kSensor)) {
    if (taken.contains(s)) continue;
    bool near_active = false;
    for (NodeId a : active) {
      if (world.can_reach(s, a)) {
        near_active = true;
        break;
      }
    }
    topology.set_role(s, near_active ? Role::kWait : Role::kSleep);
  }
  for (Cid cid = 0; cid < static_cast<Cid>(topology.cell_count()); ++cid) {
    topology.can().join(
        cid, Topology::can_point(topology.cell(cid).center(), world.area()));
  }
  return true;
}

}  // namespace refer::core
