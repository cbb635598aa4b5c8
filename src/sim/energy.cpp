#include "sim/energy.hpp"

#include <cassert>

namespace refer::sim {

void EnergyTracker::resize(std::size_t n) { spent_.resize(n, 0.0); }

void EnergyTracker::charge(std::size_t node, EnergyBucket bucket,
                           double joules) {
  assert(node < spent_.size());
  spent_[node] += joules;
  bucket_totals_[static_cast<int>(bucket)] += joules;
}

void EnergyTracker::charge_tx(std::size_t node, EnergyBucket bucket) {
  ++tx_packets_;
  charge(node, bucket, kTxJoulesPerPacket);
}

void EnergyTracker::charge_rx(std::size_t node, EnergyBucket bucket) {
  ++rx_packets_;
  charge(node, bucket, kRxJoulesPerPacket);
}

void EnergyTracker::set_initial_battery(double initial) {
  initial_battery_ = initial;
}

double EnergyTracker::battery(std::size_t node) const {
  assert(node < spent_.size());
  const double left = initial_battery_ - spent_[node];
  return left > 0 ? left : 0.0;
}

double EnergyTracker::total(EnergyBucket bucket) const {
  return bucket_totals_[static_cast<int>(bucket)];
}

double EnergyTracker::communication_total() const {
  return total(EnergyBucket::kData) + total(EnergyBucket::kMaintenance);
}

double EnergyTracker::construction_total() const {
  return total(EnergyBucket::kConstruction);
}

double EnergyTracker::grand_total() const {
  return communication_total() + construction_total();
}

double EnergyTracker::node_total(std::size_t node) const {
  assert(node < spent_.size());
  return spent_[node];
}

}  // namespace refer::sim
