#include "refer/embedding.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

#include "common/logging.hpp"
#include "dht/consistent_hash.hpp"
#include "refer/delaunay.hpp"

namespace refer::core {

using sim::EnergyBucket;

namespace {

constexpr std::size_t kControlBytes = 48;  ///< size of control frames
constexpr double kQueryDeadlineS = 0.4;    ///< per path-query collect deadline

}  // namespace

EmbeddingProtocol::EmbeddingProtocol(sim::Simulator& sim, sim::World& world,
                                     sim::Channel& channel,
                                     net::Flooder& flooder,
                                     sim::EnergyTracker& energy,
                                     EmbeddingConfig config)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      flooder_(&flooder),
      energy_(&energy),
      config_(config) {}

void EmbeddingProtocol::run(DoneFn done) {
  // Phase 1: every actuator announces itself and (one frame later) its
  // neighbour list, so all actuators learn the global actuator topology.
  for (NodeId a : world_->all_of(sim::NodeKind::kActuator)) {
    channel_->broadcast(a, kControlBytes, EnergyBucket::kConstruction,
                        nullptr);
    channel_->broadcast(a, kControlBytes, EnergyBucket::kConstruction,
                        nullptr);
    stats_.actuator_broadcasts += 2;
  }
  // Give the hello exchange a moment of simulated time, then run the
  // starting server's local computation.
  sim_->schedule_in(0.1, [this, done = std::move(done)]() mutable {
    if (!partition_and_color()) {
      done(false);
      return;
    }
    notify_actuators(std::move(done));
  });
}

bool EmbeddingProtocol::partition_and_color() {
  const auto actuators = world_->all_of(sim::NodeKind::kActuator);
  if (actuators.size() < 3) {
    log_error("embedding needs >= 3 actuators, got %zu", actuators.size());
    return false;
  }
  std::vector<Point> positions;
  positions.reserve(actuators.size());
  double min_range = world_->range(actuators.front());
  for (NodeId a : actuators) {
    positions.push_back(world_->position(a));
    min_range = std::min(min_range, world_->range(a));
  }
  auto triangles =
      filter_by_edge_length(delaunay(positions), positions, min_range);
  if (triangles.empty()) {
    log_error("no actuator triangle fits within actuator range");
    return false;
  }
  // CID order: row-major by centroid so physically close cells get close
  // CIDs (paper SIII-B1).
  std::sort(triangles.begin(), triangles.end(),
            [&](const Triangle& x, const Triangle& y) {
              const Point cx = centroid({positions[static_cast<size_t>(x[0])],
                                         positions[static_cast<size_t>(x[1])],
                                         positions[static_cast<size_t>(x[2])]});
              const Point cy = centroid({positions[static_cast<size_t>(y[0])],
                                         positions[static_cast<size_t>(y[1])],
                                         positions[static_cast<size_t>(y[2])]});
              if (cx.y != cy.y) return cx.y < cy.y;
              return cx.x < cy.x;
            });

  // 3-colouring of the triangulation graph: corners of every triangle must
  // receive distinct KIDs.
  std::vector<std::vector<int>> adjacency(actuators.size());
  auto add_edge = [&adjacency](int u, int v) {
    auto& au = adjacency[static_cast<std::size_t>(u)];
    if (std::find(au.begin(), au.end(), v) == au.end()) {
      au.push_back(v);
      adjacency[static_cast<std::size_t>(v)].push_back(u);
    }
  };
  for (const Triangle& t : triangles) {
    add_edge(t[0], t[1]);
    add_edge(t[1], t[2]);
    add_edge(t[0], t[2]);
  }
  const auto colors = three_color(adjacency);
  if (colors.empty()) {
    log_error("actuator triangulation is not 3-colourable");
    return false;
  }

  topology_.set_degree(2);
  topology_.set_diameter(3);
  const auto corner_labels = actuator_labels();
  for (std::size_t i = 0; i < actuators.size(); ++i) {
    topology_.set_role(actuators[i], Role::kActuator);
    topology_.set_actuator_label(actuators[i],
                                 corner_labels[static_cast<std::size_t>(
                                     colors[i])]);
  }
  for (const Triangle& t : triangles) {
    const Point center = centroid({positions[static_cast<size_t>(t[0])],
                                   positions[static_cast<size_t>(t[1])],
                                   positions[static_cast<size_t>(t[2])]});
    const Cid cid = topology_.add_cell(center);
    Cell& cell = topology_.cell(cid);
    cell.set_corner_labels({corner_labels.begin(), corner_labels.end()});
    for (int corner : t) {
      const NodeId node = actuators[static_cast<std::size_t>(corner)];
      cell.bind(*topology_.actuator_label(node), node);
      topology_.add_actuator_cell(node, cid);
    }
  }
  return true;
}

std::vector<int> EmbeddingProtocol::three_color(
    const std::vector<std::vector<int>>& adjacency) {
  const std::size_t n = adjacency.size();
  // Order vertices by degree, highest first (sequential vertex colouring
  // heuristic [30]), with backtracking for exactness.
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return adjacency[static_cast<std::size_t>(a)].size() >
           adjacency[static_cast<std::size_t>(b)].size();
  });
  std::vector<int> colors(n, -1);
  std::function<bool(std::size_t)> assign = [&](std::size_t idx) -> bool {
    if (idx == n) return true;
    const int v = order[idx];
    for (int c = 0; c < 3; ++c) {
      bool clash = false;
      for (int w : adjacency[static_cast<std::size_t>(v)]) {
        if (colors[static_cast<std::size_t>(w)] == c) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      colors[static_cast<std::size_t>(v)] = c;
      if (assign(idx + 1)) return true;
      colors[static_cast<std::size_t>(v)] = -1;
    }
    return false;
  };
  if (!assign(0)) return {};
  return colors;
}

void EmbeddingProtocol::notify_actuators(DoneFn done) {
  // The starting server (minimum H(A)) tells every other actuator its
  // ID = (CIDs, KID) by depth-first unicasts over the actuator topology.
  const auto actuators = world_->all_of(sim::NodeKind::kActuator);
  NodeId server = actuators.front();
  std::uint64_t min_h = ~0ULL;
  for (NodeId a : actuators) {
    const auto h = dht::consistent_hash(static_cast<std::uint64_t>(a));
    if (h < min_h) {
      min_h = h;
      server = a;
    }
  }
  // DFS tree over "actuators within range" adjacency.
  std::vector<NodeId> stack{server};
  std::unordered_map<NodeId, bool> seen{{server, true}};
  while (!stack.empty()) {
    const NodeId at = stack.back();
    stack.pop_back();
    for (NodeId b : actuators) {
      if (seen[b] || !world_->can_reach(at, b)) continue;
      seen[b] = true;
      channel_->unicast(at, b, kControlBytes,
                        EnergyBucket::kConstruction, nullptr);
      ++stats_.notification_unicasts;
      stack.push_back(b);
    }
  }

  // Phase 3: schedule every cell's sensor path queries, in CID order.
  tasks_.clear();
  for (Cid cid = 0; cid < static_cast<Cid>(topology_.cell_count()); ++cid) {
    for (const auto& tmpl : k23_query_schedule()) {
      tasks_.push_back(QueryTask{cid, tmpl});
    }
  }
  sim_->schedule_in(0.05, [this, done = std::move(done)]() mutable {
    run_next_query(0, std::move(done));
  });
}

void EmbeddingProtocol::run_next_query(std::size_t index, DoneFn done) {
  if (index == tasks_.size()) {
    finish_cell_fill_ins(0, std::move(done));
    return;
  }
  const QueryTask& task = tasks_[index];
  const Cell& cell = topology_.cell(task.cid);
  const auto from = cell.node_of(task.tmpl.from);
  const auto to = cell.node_of(task.tmpl.to);
  ++stats_.path_queries;
  if (!from || !to) {
    // A prerequisite assignment failed; try the geometric fallback.
    if (!fallback_assign(task)) {
      done(false);
      return;
    }
    run_next_query(index + 1, std::move(done));
    return;
  }
  flooder_->collect_paths(
      *from, *to, /*ttl=*/2, EnergyBucket::kConstruction,
      [this, index, task, done = std::move(done)](
          std::vector<std::vector<NodeId>> paths) mutable {
        if (!apply_query_result(task, paths) && !fallback_assign(task)) {
          log_warn("embedding: cell %d query %s->%s found no path "
                   "(%zu arrivals) and no fallback",
                   task.cid, task.tmpl.from.to_string().c_str(),
                   task.tmpl.to.to_string().c_str(), paths.size());
          done(false);
          return;
        }
        run_next_query(index + 1, std::move(done));
      },
      kControlBytes, kQueryDeadlineS,
      config_.query_tx_range);
}

bool EmbeddingProtocol::sensor_unassigned(NodeId node) const {
  if (world_->kind(node) != sim::NodeKind::kSensor) return false;
  const Role r = topology_.role(node);
  return r == Role::kSleep || r == Role::kWait;
}

bool EmbeddingProtocol::apply_query_result(
    const QueryTask& task, const std::vector<std::vector<NodeId>>& paths) {
  // Keep paths with exactly two intermediate, unassigned, alive sensors
  // (the two labels to place), pick the one with the highest accumulated
  // battery (paper SIII-B2); battery ties (common right after deployment)
  // break towards the geometrically shortest path, which keeps the
  // embedded arcs physically tight -- the same lowest-delay preference the
  // paper's forwarding uses.
  const std::vector<NodeId>* best = nullptr;
  double best_battery = -1;
  double best_length = 0;
  for (const auto& path : paths) {
    if (path.size() != 4) continue;
    const NodeId s1 = path[1], s2 = path[2];
    if (s1 == s2 || !sensor_unassigned(s1) || !sensor_unassigned(s2)) continue;
    if (!world_->alive(s1) || !world_->alive(s2)) continue;
    const double battery = energy_->battery(static_cast<std::size_t>(s1)) +
                           energy_->battery(static_cast<std::size_t>(s2));
    double length = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      length += distance(world_->position(path[i]),
                         world_->position(path[i + 1]));
    }
    const bool better = battery > best_battery + 1e-9 ||
                        (battery > best_battery - 1e-9 &&
                         (!best || length < best_length));
    if (better) {
      best_battery = std::max(battery, best_battery);
      best_length = length;
      best = &path;
    }
  }
  if (!best) return false;
  Cell& cell = topology_.cell(task.cid);
  const NodeId selector = best->back();
  std::array<NodeId, 2> chosen{(*best)[1], (*best)[2]};
  for (std::size_t i = 0; i < 2; ++i) {
    cell.bind(task.tmpl.assigns[i], chosen[i]);
    topology_.set_sensor_binding(chosen[i],
                                 FullId{task.cid, task.tmpl.assigns[i]});
    topology_.set_role(chosen[i], Role::kActive);
  }
  // Assignment notifications travel back along the path (selector -> s2 ->
  // s1), which stays within range.
  channel_->unicast(selector, chosen[1], kControlBytes,
                    EnergyBucket::kConstruction, nullptr);
  channel_->unicast(chosen[1], chosen[0], kControlBytes,
                    EnergyBucket::kConstruction, nullptr);
  stats_.notification_unicasts += 2;
  return true;
}

bool EmbeddingProtocol::fallback_assign(const QueryTask& task) {
  // Sparse-deployment fallback: pick the unassigned sensors closest to the
  // ideal positions (thirds of the from->to segment) that are physically
  // connectable from -> s1 -> s2 -> to.
  Cell& cell = topology_.cell(task.cid);
  const auto from = cell.node_of(task.tmpl.from);
  const auto to = cell.node_of(task.tmpl.to);
  if (!from || !to) return false;
  const Point a = world_->position(*from);
  const Point b = world_->position(*to);
  const Point ideal1 = a + (b - a) * (1.0 / 3.0);
  const Point ideal2 = a + (b - a) * (2.0 / 3.0);

  std::vector<NodeId> candidates;
  for (NodeId s : world_->all_of(sim::NodeKind::kSensor)) {
    if (world_->alive(s) && sensor_unassigned(s)) candidates.push_back(s);
  }
  auto nearest_sorted = [&](Point ideal) {
    auto sorted = candidates;
    std::sort(sorted.begin(), sorted.end(), [&](NodeId x, NodeId y) {
      return distance_sq(world_->position(x), ideal) <
             distance_sq(world_->position(y), ideal);
    });
    if (sorted.size() > 12) sorted.resize(12);
    return sorted;
  };
  auto commit = [&](NodeId s1, NodeId s2) {
    cell.bind(task.tmpl.assigns[0], s1);
    cell.bind(task.tmpl.assigns[1], s2);
    topology_.set_sensor_binding(s1, FullId{task.cid, task.tmpl.assigns[0]});
    topology_.set_sensor_binding(s2, FullId{task.cid, task.tmpl.assigns[1]});
    topology_.set_role(s1, Role::kActive);
    topology_.set_role(s2, Role::kActive);
    channel_->unicast(*from, s1, kControlBytes,
                      EnergyBucket::kConstruction, nullptr);
    channel_->unicast(s1, s2, kControlBytes,
                      EnergyBucket::kConstruction, nullptr);
    stats_.notification_unicasts += 2;
    ++stats_.fallback_assignments;
  };
  // Tier 1: a fully connected from -> s1 -> s2 -> to chain.
  for (NodeId s1 : nearest_sorted(ideal1)) {
    if (!world_->can_reach(*from, s1)) continue;
    for (NodeId s2 : nearest_sorted(ideal2)) {
      if (s2 == s1) continue;
      if (!world_->can_reach(s1, s2) || !world_->can_reach(s2, *to)) continue;
      commit(s1, s2);
      return true;
    }
  }
  // Tier 2 (degraded): no connected chain exists -- take the sensors
  // closest to the ideal positions anyway.  Stretched arcs are served by
  // the router's 1-relay detour and healed by maintenance as nodes move.
  const auto near1 = nearest_sorted(ideal1);
  const auto near2 = nearest_sorted(ideal2);
  for (NodeId s1 : near1) {
    for (NodeId s2 : near2) {
      if (s1 == s2) continue;
      commit(s1, s2);
      ++stats_.degraded_assignments;
      return true;
    }
  }
  return false;
}

void EmbeddingProtocol::finish_cell_fill_ins(std::size_t cell_index,
                                             DoneFn done) {
  if (cell_index == topology_.cell_count()) {
    assign_roles_and_join_can();
    done(true);
    return;
  }
  Cell& cell = topology_.cell(static_cast<Cid>(cell_index));
  const auto fill = k23_fill_in();
  const auto holder_a = cell.node_of(fill.neighbor_a);
  const auto holder_b = cell.node_of(fill.neighbor_b);
  if (!holder_a || !holder_b) {
    log_warn("embedding: cell %zu fill-in anchors missing", cell_index);
    done(false);
    return;
  }
  // The two holders probe for common neighbours (one broadcast each,
  // maintenance-style but still part of construction).
  channel_->broadcast(*holder_a, kControlBytes,
                      EnergyBucket::kConstruction, nullptr);
  channel_->broadcast(*holder_b, kControlBytes,
                      EnergyBucket::kConstruction, nullptr);
  stats_.actuator_broadcasts += 2;

  NodeId best = -1;
  double best_battery = -1;
  world_->visit_reachable(*holder_a, [&](NodeId c) {
    if (!sensor_unassigned(c) || !world_->can_reach(*holder_b, c) ||
        !world_->can_reach(c, *holder_a) || !world_->can_reach(c, *holder_b)) {
      return;
    }
    const double battery = energy_->battery(static_cast<std::size_t>(c));
    if (battery > best_battery) {
      best_battery = battery;
      best = c;
    }
  });
  if (best < 0) {
    // Geometric fallback: closest unassigned sensor to the midpoint that
    // can reach both holders is required; without one the cell cannot be
    // completed.
    const Point mid =
        centroid({world_->position(*holder_a), world_->position(*holder_b)});
    double best_d = std::numeric_limits<double>::infinity();
    for (NodeId c : world_->all_of(sim::NodeKind::kSensor)) {
      if (!world_->alive(c) || !sensor_unassigned(c)) continue;
      if (!world_->can_reach(c, *holder_a) || !world_->can_reach(c, *holder_b))
        continue;
      const double d = distance_sq(world_->position(c), mid);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    if (best < 0) {
      // Degraded: nearest unassigned sensor to the midpoint, regardless
      // of connectivity (relay detours + maintenance take over).
      for (NodeId c : world_->all_of(sim::NodeKind::kSensor)) {
        if (!world_->alive(c) || !sensor_unassigned(c)) continue;
        const double d = distance_sq(world_->position(c), mid);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (best < 0) {
        log_warn("embedding: cell %zu has no unassigned sensor left for "
                 "fill-in label %s",
                 cell_index, fill.label.to_string().c_str());
        done(false);
        return;
      }
      ++stats_.degraded_assignments;
    }
    ++stats_.fallback_assignments;
  }
  cell.bind(fill.label, best);
  topology_.set_sensor_binding(best,
                               FullId{cell.cid(), fill.label});
  topology_.set_role(best, Role::kActive);
  channel_->unicast(*holder_a, best, kControlBytes,
                    EnergyBucket::kConstruction, nullptr);
  ++stats_.notification_unicasts;
  ++stats_.cells_embedded;
  sim_->schedule_in(0.02, [this, cell_index, done = std::move(done)]() mutable {
    finish_cell_fill_ins(cell_index + 1, std::move(done));
  });
}

void EmbeddingProtocol::assign_roles_and_join_can() {
  // Wait/sleep states (SIII-B4): a sensor that can hear an active Kautz
  // sensor parks as a replacement candidate (wait); everyone else sleeps.
  const auto active = topology_.active_sensors();
  for (NodeId s : world_->all_of(sim::NodeKind::kSensor)) {
    if (!sensor_unassigned(s)) continue;
    bool near_active = false;
    for (NodeId a : active) {
      if (world_->can_reach(s, a)) {
        near_active = true;
        break;
      }
    }
    topology_.set_role(s, near_active ? Role::kWait : Role::kSleep);
  }
  // Upper tier: cells join the CAN at their normalised centroids; one
  // announcement broadcast per cell by a corner actuator.
  for (Cid cid = 0; cid < static_cast<Cid>(topology_.cell_count()); ++cid) {
    const Cell& cell = topology_.cell(cid);
    topology_.can().join(cid, Topology::can_point(cell.center(),
                                                  world_->area()));
    if (const auto corner = cell.corner_actuators()[0]) {
      channel_->broadcast(*corner, kControlBytes,
                          EnergyBucket::kConstruction, nullptr);
      ++stats_.actuator_broadcasts;
    }
  }
}

}  // namespace refer::core
