#include "baselines/kautz_overlay.hpp"

#include <algorithm>
#include <limits>

#include "kautz/graph.hpp"
#include "refer/delaunay.hpp"

namespace refer::baselines {

using sim::EnergyBucket;

namespace {

constexpr int kDegree = 2;                ///< K(2,3) cells
constexpr int kRepairTtl = 16;            ///< random arcs span most of the field
constexpr double kRepairDeadlineS = 1.0;
constexpr int kHopBudget = 24;            ///< overlay hops per message
constexpr int kPathRepairsPerArc = 1;     ///< repair attempts before fail-over
constexpr std::size_t kControlBytes = 48;

}  // namespace

KautzOverlay::KautzOverlay(sim::Simulator& sim, sim::World& world,
                           sim::Channel& channel, net::Flooder& flooder,
                           Rng rng)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      flooder_(&flooder),
      rng_(rng) {}

bool KautzOverlay::partition_cells() {
  const auto actuators = world_->all_of(sim::NodeKind::kActuator);
  if (actuators.size() < 3) return false;
  std::vector<Point> positions;
  double min_range = world_->range(actuators.front());
  for (NodeId a : actuators) {
    positions.push_back(world_->position(a));
    min_range = std::min(min_range, world_->range(a));
  }
  const auto triangles = core::filter_by_edge_length(
      core::delaunay(positions), positions, min_range);
  if (triangles.empty()) return false;
  const auto corner_labels = core::actuator_labels();
  for (const auto& t : triangles) {
    const Cid cid = static_cast<Cid>(cells_.size());
    cells_.emplace_back(cid,
                        centroid({positions[static_cast<size_t>(t[0])],
                                  positions[static_cast<size_t>(t[1])],
                                  positions[static_cast<size_t>(t[2])]}));
    // Application-layer corner assignment: actuators take the three
    // corner labels in index order (hash order; no geometry involved).
    for (std::size_t i = 0; i < 3; ++i) {
      cells_.back().bind(corner_labels[i],
                         actuators[static_cast<std::size_t>(t[i])]);
    }
  }
  return true;
}

void KautzOverlay::assign_random_labels() {
  // Hash-style ID assignment: every non-corner label of every cell goes
  // to a uniformly random unassigned sensor, wherever it happens to be.
  const kautz::Graph graph(kDegree, 3);
  std::vector<NodeId> pool;
  for (NodeId s : world_->all_of(sim::NodeKind::kSensor)) {
    if (world_->alive(s)) pool.push_back(s);
  }
  rng_.shuffle(pool);
  std::size_t next = 0;
  const auto corner_labels = core::actuator_labels();
  for (Cell& cell : cells_) {
    for (const Label& label : graph.nodes()) {
      if (std::find(corner_labels.begin(), corner_labels.end(), label) !=
          corner_labels.end()) {
        continue;
      }
      if (next >= pool.size()) return;  // not enough sensors: partial cell
      const NodeId node = pool[next++];
      cell.bind(label, node);
      bindings_[node] = {cell.cid(), label};
    }
  }
}

void KautzOverlay::build(std::function<void(bool)> done) {
  // Actuator hello round (as in REFER's phase 1).
  for (NodeId a : world_->all_of(sim::NodeKind::kActuator)) {
    channel_->broadcast(a, kControlBytes, EnergyBucket::kConstruction,
                        nullptr);
  }
  if (!partition_cells()) {
    sim_->schedule_in(0.01, [done = std::move(done)] { done(false); });
    return;
  }
  assign_random_labels();
  // Every overlay arc needs a physical multi-hop path, discovered by
  // broadcasting (the dominant construction cost, paper Fig. 10).
  const kautz::Graph graph(kDegree, 3);
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (const Cell& cell : cells_) {
    for (const Label& u : cell.labels()) {
      const auto nu = cell.node_of(u);
      for (const Label& v : graph.out_neighbors(u)) {
        const auto nv = cell.node_of(v);
        if (!nu || !nv || *nu == *nv) continue;
        arcs.emplace_back(*nu, *nv);
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  discover_arcs(std::move(arcs), 0, std::move(done));
}

void KautzOverlay::discover_arcs(std::vector<std::pair<NodeId, NodeId>> arcs,
                                 std::size_t index,
                                 std::function<void(bool)> done) {
  if (index >= arcs.size()) {
    done(true);
    return;
  }
  const auto [from, to] = arcs[index];
  flooder_->discover(
      from, to, kRepairTtl, EnergyBucket::kConstruction,
      [this, arcs = std::move(arcs), index, done = std::move(done)](
          std::optional<std::vector<NodeId>> path) mutable {
        if (path) {
          arc_paths_[arcs[index]] = *path;
          ++stats_.arc_paths_built;
        }
        discover_arcs(std::move(arcs), index + 1, std::move(done));
      },
      kControlBytes, kRepairDeadlineS);
}

std::optional<std::pair<Cid, Label>> KautzOverlay::binding_of(
    NodeId node) const {
  const auto it = bindings_.find(node);
  if (it == bindings_.end()) return std::nullopt;
  return it->second;
}

void KautzOverlay::send_event(NodeId src, std::size_t bytes,
                              std::function<void(const Delivery&)> done) {
  auto msg = std::make_shared<Pending>();
  msg->bytes = bytes;
  msg->sent_at = sim_->now();
  msg->overlay_hops_left = kHopBudget;
  msg->done = std::move(done);

  if (world_->is_actuator(src)) {
    finish(src, msg);
    return;
  }
  const auto binding = binding_of(src);
  if (binding) {
    overlay_step(binding->first, binding->second, src, msg);
    return;
  }
  // A sensor outside the overlay walks its reading greedily towards the
  // nearest actuator until an overlay member picks it up (same entry rule
  // as REFER, for a fair comparison).
  enter_overlay(src, 4, msg);
}

void KautzOverlay::enter_overlay(NodeId at, int budget, PendingPtr msg) {
  if (budget <= 0) {
    drop(msg);
    return;
  }
  NodeId member = -1, closer = -1;
  double best_member = std::numeric_limits<double>::infinity();
  const NodeId actuator = world_->closest_actuator(at);
  if (actuator < 0) {
    drop(msg);
    return;
  }
  const Point goal = world_->position(actuator);
  double best_progress = distance_sq(world_->position(at), goal);
  world_->visit_reachable(at, [&](NodeId n) {
    if (bindings_.contains(n) || world_->is_actuator(n)) {
      const double d = distance_sq(world_->position(at), world_->position(n));
      if (d < best_member) {
        best_member = d;
        member = n;
      }
    }
    const double d_goal = distance_sq(world_->position(n), goal);
    if (d_goal < best_progress) {
      best_progress = d_goal;
      closer = n;
    }
  });
  const NodeId next = member >= 0 ? member : closer;
  if (next < 0) {
    drop(msg);
    return;
  }
  channel_->unicast(at, next, msg->bytes, EnergyBucket::kData,
                    [this, next, budget, msg](bool ok) {
                      if (!ok) {
                        drop(msg);
                        return;
                      }
                      ++msg->physical_hops;
                      if (world_->is_actuator(next)) {
                        finish(next, msg);
                        return;
                      }
                      if (const auto b = binding_of(next)) {
                        overlay_step(b->first, b->second, next, msg);
                        return;
                      }
                      enter_overlay(next, budget - 1, msg);
                    });
}

void KautzOverlay::overlay_step(Cid cid, Label label, NodeId node,
                                PendingPtr msg) {
  if (world_->is_actuator(node)) {
    finish(node, msg);
    return;
  }
  if (msg->overlay_hops_left-- <= 0) {
    drop(msg);
    return;
  }
  // Destination: the cell's corner label closest in Kautz distance.
  Label target;
  int best = std::numeric_limits<int>::max();
  for (const Label& c : core::actuator_labels()) {
    const int d = kautz::kautz_distance(label, c);
    if (d < best) {
      best = d;
      target = c;
    }
  }
  try_successors(cid, label, node,
                 kautz::disjoint_routes(kDegree, label, target), 0, msg);
}

void KautzOverlay::try_successors(Cid cid, Label label, NodeId node,
                                  std::vector<kautz::Route> routes,
                                  std::size_t choice, PendingPtr msg) {
  if (choice >= routes.size()) {
    drop(msg);
    return;
  }
  if (choice > 0) ++stats_.failovers;
  const Cell& cell = cells_[static_cast<std::size_t>(cid)];
  const auto succ_node = cell.node_of(routes[choice].successor);
  if (!succ_node || !world_->alive(*succ_node)) {
    try_successors(cid, label, node, std::move(routes), choice + 1,
                   std::move(msg));
    return;
  }
  const Label succ_label = routes[choice].successor;
  walk_arc(node, *succ_node, 0, kPathRepairsPerArc, msg,
           [this, cid, label, node, routes = std::move(routes), choice,
            succ_label, succ_node = *succ_node, msg](bool ok) mutable {
             if (!ok) {
               try_successors(cid, label, node, std::move(routes), choice + 1,
                              std::move(msg));
               return;
             }
             overlay_step(cid, succ_label, succ_node, std::move(msg));
           });
}

void KautzOverlay::walk_arc(NodeId from, NodeId to, std::size_t hop,
                            int repairs_left, PendingPtr msg,
                            std::function<void(bool)> done) {
  auto it = arc_paths_.find({from, to});
  if (it == arc_paths_.end() || it->second.size() < 2) {
    if (repairs_left <= 0) {
      done(false);
      return;
    }
    ++stats_.path_repairs;
    flooder_->discover(
        from, to, kRepairTtl, EnergyBucket::kMaintenance,
        [this, from, to, repairs_left, msg, done = std::move(done)](
            std::optional<std::vector<NodeId>> path) mutable {
          if (!path) {
            done(false);
            return;
          }
          arc_paths_[{from, to}] = *path;
          walk_arc(from, to, 0, repairs_left - 1, msg, std::move(done));
        },
        kControlBytes, kRepairDeadlineS);
    return;
  }
  const auto& path = it->second;
  if (hop + 1 >= path.size()) {
    done(true);
    return;
  }
  channel_->unicast(
      path[hop], path[hop + 1], msg->bytes, EnergyBucket::kData,
      [this, from, to, hop, repairs_left, msg,
       done = std::move(done)](bool ok) mutable {
        if (ok) {
          ++msg->physical_hops;
          walk_arc(from, to, hop + 1, repairs_left, msg, std::move(done));
          return;
        }
        // The physical path broke: the current holder re-floods to the
        // overlay neighbour and the message continues from here.
        if (repairs_left <= 0) {
          done(false);
          return;
        }
        ++stats_.path_repairs;
        const auto& broken = arc_paths_[{from, to}];
        const NodeId holder = broken[hop];
        flooder_->discover(
            holder, to, kRepairTtl, EnergyBucket::kMaintenance,
            [this, from, to, holder, repairs_left, msg,
             done = std::move(done)](
                std::optional<std::vector<NodeId>> fresh) mutable {
              if (!fresh) {
                done(false);
                return;
              }
              // Splice: keep the walked prefix, continue on the fresh
              // suffix from the holder.
              auto& stored = arc_paths_[{from, to}];
              const auto pos =
                  std::find(stored.begin(), stored.end(), holder);
              std::vector<NodeId> spliced(stored.begin(), pos);
              spliced.insert(spliced.end(), fresh->begin(), fresh->end());
              stored = std::move(spliced);
              const auto hop_at = static_cast<std::size_t>(
                  std::find(stored.begin(), stored.end(), holder) -
                  stored.begin());
              walk_arc(from, to, hop_at, repairs_left - 1, msg,
                       std::move(done));
            },
            kControlBytes, kRepairDeadlineS);
      });
}

void KautzOverlay::finish(NodeId actuator, PendingPtr msg) {
  ++stats_.delivered;
  Delivery d;
  d.delivered = true;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->physical_hops;
  d.actuator = actuator;
  if (msg->done) msg->done(d);
}

void KautzOverlay::drop(PendingPtr msg) {
  ++stats_.drops;
  Delivery d;
  d.delivered = false;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->physical_hops;
  if (msg->done) msg->done(d);
}

}  // namespace refer::baselines
