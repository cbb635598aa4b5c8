#include "refer/maintenance.hpp"

#include <limits>

namespace refer::core {

using sim::EnergyBucket;

namespace {

constexpr double kSweepPeriodS = 2.0;     ///< replacement check cadence
constexpr double kProbePeriodS = 20.0;    ///< wait-node wake/probe cadence
constexpr double kLinkMargin = 0.9;       ///< replace when arc > margin*range
constexpr double kBatteryThresholdJ = 8;  ///< self-retire threshold
constexpr std::size_t kControlBytes = 32;

}  // namespace

MaintenanceProtocol::MaintenanceProtocol(sim::Simulator& sim,
                                         sim::World& world,
                                         sim::Channel& channel,
                                         sim::EnergyTracker& energy,
                                         Topology& topology, Rng rng)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      energy_(&energy),
      topology_(&topology),
      rng_(rng) {}

void MaintenanceProtocol::start() {
  if (running_) return;
  running_ = true;
  last_probe_ = sim_->now();
  schedule_next();
}

void MaintenanceProtocol::stop() { running_ = false; }

void MaintenanceProtocol::schedule_next() {
  sim_->schedule_in(kSweepPeriodS, [this] {
    if (!running_) return;
    sweep();
    if (sim_->now() - last_probe_ >= kProbePeriodS) {
      last_probe_ = sim_->now();
      probe_wait_nodes();
    }
    schedule_next();
  });
}

const std::vector<NodeId>& MaintenanceProtocol::sensors() {
  if (sensors_listed_at_ != world_->size()) {
    sensors_ = world_->all_of(sim::NodeKind::kSensor);
    sensors_listed_at_ = world_->size();
  }
  return sensors_;
}

void MaintenanceProtocol::probe_wait_nodes() {
  // Wait-state sensors wake up and probe their Kautz-node neighbours
  // (SIII-B4); the probe keeps their candidate status fresh.  Sleeping
  // nodes stay silent (that is where the energy saving comes from).
  for (NodeId s : sensors()) {
    if (topology_->role(s) != Role::kWait || !world_->alive(s)) continue;
    channel_->broadcast(s, kControlBytes, EnergyBucket::kMaintenance,
                        nullptr);
    ++stats_.probe_broadcasts;
  }
}

void MaintenanceProtocol::collect_arc_holders(const Cell& cell,
                                              const Label& label) {
  // The holders of the label's out-neighbours (shift a digit in at the
  // end) and in-neighbours (shift one in at the front) in K(d, k); each
  // distinct holder counts once, however many of those labels it holds.
  // Dead holders keep no arc, so they are left out.
  arc_holders_.clear();
  auto add = [this, &cell](const Label& l) {
    const auto n = cell.node_of(l);
    if (!n || !world_->alive(*n)) return;
    for (const ArcHolder& h : arc_holders_) {
      if (h.id == *n) return;
    }
    arc_holders_.push_back(ArcHolder{*n, world_->position(*n)});
  };
  const int alphabet = topology_->degree() + 1;
  for (kautz::Digit a = 0; a < alphabet; ++a) {
    if (a != label.last()) add(label.shift_append(a));
  }
  for (kautz::Digit b = 0; b < alphabet; ++b) {
    if (b != label.first()) add(label.shift_prepend(b));
  }
}

int MaintenanceProtocol::broken_arcs(NodeId node, Point at) const {
  // An arc is "broken" when its endpoints cannot talk directly at sensor
  // power (the router then needs the 1-relay detour).  The link margin
  // shrinks the threshold so links about to break (signal strength
  // fading, SIII-B4) already count.
  int broken = 0;
  const double reach = world_->range(node) * kLinkMargin;
  for (const ArcHolder& h : arc_holders_) {
    if (h.id != node && distance(at, h.at) > reach) ++broken;
  }
  return broken;
}

bool MaintenanceProtocol::needs_replacement(const Cell& cell,
                                            const Label& label, NodeId node) {
  if (!world_->alive(node)) return true;
  if (energy_->battery(static_cast<std::size_t>(node)) <
      kBatteryThresholdJ) {
    return true;
  }
  collect_arc_holders(cell, label);
  return broken_arcs(node, world_->position(node)) > 0;
}

void MaintenanceProtocol::sweep() {
  ++stats_.sweeps;
  for (Cid cid = 0; cid < static_cast<Cid>(topology_->cell_count()); ++cid) {
    Cell& cell = topology_->cell(cid);
    for (const Label& label : cell.labels()) {
      const auto node = cell.node_of(label);
      if (!node || world_->is_actuator(*node)) continue;
      if (needs_replacement(cell, label, *node)) {
        replace(cell, label, *node);
      }
    }
  }
}

void MaintenanceProtocol::replace(Cell& cell, const Label& label,
                                  NodeId old_node) {
  // Candidate: a wait/sleep sensor that restores the label's Kautz-arc
  // connectivity (paper SIII-B4), preferring fewer broken arcs, then
  // higher battery.  A replacement only happens when it strictly improves
  // on the current holder (mandatory when the holder is dead or drained),
  // so a healthy topology is a fixed point of sweep().
  const bool mandatory =
      !world_->alive(old_node) ||
      energy_->battery(static_cast<std::size_t>(old_node)) <
          kBatteryThresholdJ;
  // Nothing moves or fails inside this call, so every candidate is
  // scored against one holder set.
  collect_arc_holders(cell, label);
  const int old_broken =
      world_->alive(old_node)
          ? broken_arcs(old_node, world_->position(old_node))
          : std::numeric_limits<int>::max();
  NodeId best = -1;
  int best_broken = std::numeric_limits<int>::max();
  double best_battery = -1;
  for (NodeId s : sensors()) {
    if (!world_->alive(s) || s == old_node) continue;
    const Role r = topology_->role(s);
    if (r != Role::kWait && r != Role::kSleep) continue;
    const int broken = broken_arcs(s, world_->position(s));
    const double battery = energy_->battery(static_cast<std::size_t>(s));
    if (broken < best_broken ||
        (broken == best_broken && battery > best_battery)) {
      best_broken = broken;
      best_battery = battery;
      best = s;
    }
  }
  const bool improves = best >= 0 && (mandatory || best_broken < old_broken);
  if (!improves) {
    if (mandatory) ++stats_.failed_replacements;
    return;
  }
  // Handover: the retiring node notifies the replacement; the replacement
  // announces itself to the label's neighbours (one broadcast).
  if (world_->alive(old_node)) {
    channel_->unicast(old_node, best, kControlBytes,
                      EnergyBucket::kMaintenance, nullptr);
  }
  channel_->broadcast(best, kControlBytes, EnergyBucket::kMaintenance,
                      nullptr);
  cell.unbind(label);
  cell.bind(label, best);
  topology_->clear_sensor_binding(old_node);
  topology_->set_sensor_binding(best, FullId{cell.cid(), label});
  topology_->set_role(best, Role::kActive);
  topology_->set_role(old_node,
                      world_->alive(old_node) ? Role::kWait : Role::kSleep);
  ++stats_.replacements;
}

}  // namespace refer::core
