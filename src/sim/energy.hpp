// Per-node energy accounting (paper SIV: 2 J/packet transmit,
// 0.75 J/packet receive [37]).
//
// Energy is tracked in the buckets the paper's figures separate:
// construction (Fig. 10), and communication = data forwarding + topology
// maintenance (Figs. 5, 9, 11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace refer::sim {

/// Which figure-level account a transmission belongs to.
enum class EnergyBucket {
  kConstruction,  ///< overlay/topology construction messages
  kData,          ///< application data forwarding
  kMaintenance,   ///< topology maintenance (probes, repairs, path updates)
};
inline constexpr int kEnergyBucketCount = 3;

/// Joules one transmitted / received packet costs (paper SIV).
inline constexpr double kTxJoulesPerPacket = 2.0;
inline constexpr double kRxJoulesPerPacket = 0.75;

/// Per-node energy accumulators.
class EnergyTracker {
 public:
  /// Registers nodes [0, n).
  void resize(std::size_t n);

  void charge_tx(std::size_t node, EnergyBucket bucket);
  void charge_rx(std::size_t node, EnergyBucket bucket);

  /// Battery level bookkeeping: nodes start with `initial` joules; charge_*
  /// drains the battery.  Sensors with drained batteries are detected by
  /// the maintenance protocol (paper SIII-B4).
  void set_initial_battery(double initial);
  [[nodiscard]] double battery(std::size_t node) const;

  /// Total joules spent in one bucket, across all nodes.
  [[nodiscard]] double total(EnergyBucket bucket) const;
  /// Communication energy as the paper defines it: data + maintenance.
  [[nodiscard]] double communication_total() const;
  /// Construction energy (Fig. 10).
  [[nodiscard]] double construction_total() const;
  /// Everything.
  [[nodiscard]] double grand_total() const;

  /// Per-node spend across all buckets.
  [[nodiscard]] double node_total(std::size_t node) const;

  /// Number of charge_tx / charge_rx calls so far.  The invariant engine
  /// (src/verify) re-derives the bucket drain from these counts -- every
  /// joule must be explained by tx_packets * kTxJoulesPerPacket +
  /// rx_packets * kRxJoulesPerPacket, exactly (both sides are multiples
  /// of 0.25 J, so no rounding).
  [[nodiscard]] std::uint64_t tx_packets() const noexcept {
    return tx_packets_;
  }
  [[nodiscard]] std::uint64_t rx_packets() const noexcept {
    return rx_packets_;
  }

 private:
  void charge(std::size_t node, EnergyBucket bucket, double joules);

  double initial_battery_ = 1e9;
  std::vector<double> spent_;                       // per node
  double bucket_totals_[kEnergyBucketCount] = {0, 0, 0};
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
};

}  // namespace refer::sim
