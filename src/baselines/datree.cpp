#include "baselines/datree.hpp"

#include <memory>

namespace refer::baselines {

using sim::EnergyBucket;

namespace {

constexpr int kBeaconTtl = 12;          ///< tree depth bound for construction
constexpr int kRepairTtl = 8;           ///< flood TTL for re-parenting
constexpr double kRepairDeadlineS = 0.5;
constexpr int kMaxRetransmissions = 3;  ///< source retries per message
constexpr std::size_t kControlBytes = 48;

}  // namespace

DaTree::DaTree(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
               net::Flooder& flooder)
    : sim_(&sim), world_(&world), channel_(&channel), flooder_(&flooder) {}

void DaTree::build(std::function<void(bool)> done) {
  // Each actuator floods one beacon; the first forwarder a sensor hears
  // *and can reach back* (link symmetry: the data flows child -> parent)
  // becomes its parent.  Across floods the first tree that claimed a node
  // keeps it.
  for (NodeId a : world_->all_of(sim::NodeKind::kActuator)) {
    flooder_->announce(a, kBeaconTtl, EnergyBucket::kConstruction,
                       [this](NodeId node, int /*hops*/, NodeId parent) {
                         // One tree per sensor: nodes already claimed by an
                         // earlier beacon neither re-attach nor forward the
                         // new tree's beacon.
                         if (parent_.contains(node)) return false;
                         if (!world_->can_reach(node, parent)) return false;
                         parent_.emplace(node, parent);
                         return true;
                       },
                       kControlBytes);
  }
  // Beacons need a moment of simulated time to spread.
  sim_->schedule_in(1.0, [done = std::move(done)] { done(true); });
}

NodeId DaTree::parent_of(NodeId sensor) const {
  const auto it = parent_.find(sensor);
  return it == parent_.end() ? -1 : it->second;
}

NodeId DaTree::root_of(NodeId sensor) const {
  NodeId at = sensor;
  for (std::size_t guard = 0; guard < parent_.size() + 2; ++guard) {
    if (world_->is_actuator(at)) return at;
    const NodeId p = parent_of(at);
    if (p < 0) return -1;
    at = p;
  }
  return -1;
}

void DaTree::send_event(NodeId src, std::size_t bytes,
                        std::function<void(const Delivery&)> done) {
  auto msg = std::make_shared<Pending>();
  msg->src = src;
  msg->bytes = bytes;
  msg->sent_at = sim_->now();
  msg->retries_left = kMaxRetransmissions;
  msg->done = std::move(done);
  forward(src, msg);
}

void DaTree::forward(NodeId at, PendingPtr msg) {
  if (world_->is_actuator(at)) {
    finish(at, msg);
    return;
  }
  const NodeId parent = parent_of(at);
  if (parent < 0) {
    repair_and_retransmit(at, msg);
    return;
  }
  channel_->unicast(at, parent, msg->bytes, EnergyBucket::kData,
                    [this, at, parent, msg](bool ok) {
                      if (!ok) {
                        repair_and_retransmit(at, msg);
                        return;
                      }
                      ++msg->hops;
                      forward(parent, msg);
                    });
}

void DaTree::repair_and_retransmit(NodeId broken_node, PendingPtr msg) {
  // The node that lost its parent broadcasts towards its root to attach
  // to a new parent (paper SIV); afterwards the *source* retransmits.
  if (msg->retries_left-- <= 0) {
    drop(msg);
    return;
  }
  ++stats_.repairs;
  NodeId root = root_of(broken_node);
  if (root < 0) root = world_->closest_actuator(broken_node);
  if (root < 0) {
    drop(msg);
    return;
  }
  flooder_->discover(
      broken_node, root, kRepairTtl, EnergyBucket::kMaintenance,
      [this, broken_node, msg](std::optional<std::vector<NodeId>> path) {
        if (path && path->size() >= 2) {
          // New parent = next hop towards the root.
          parent_[broken_node] = (*path)[1];
        } else {
          parent_.erase(broken_node);
        }
        ++stats_.retransmissions;
        forward(msg->src, msg);  // source retransmission
      },
      kControlBytes, kRepairDeadlineS);
}

void DaTree::finish(NodeId actuator, PendingPtr msg) {
  ++stats_.delivered;
  Delivery d;
  d.delivered = true;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  d.actuator = actuator;
  if (msg->done) msg->done(d);
}

void DaTree::drop(PendingPtr msg) {
  ++stats_.drops;
  Delivery d;
  d.delivered = false;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  if (msg->done) msg->done(d);
}

}  // namespace refer::baselines
