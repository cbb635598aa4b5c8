// Topology maintenance (paper SIII-B4): node replacement with
// awake/sleep scheduling.
//
// Sensors in the wait state periodically wake and probe their nearby
// Kautz nodes (charged as maintenance broadcasts).  When a Kautz node's
// battery falls below threshold, it dies, or one of its Kautz-arc links
// is about to break (distance beyond the link margin), the node is
// replaced by the best candidate that can hold connections to all of the
// label's current Kautz neighbours; the handover costs notification
// messages, also charged as maintenance.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "refer/topology.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::core {

class MaintenanceProtocol {
 public:
  MaintenanceProtocol(sim::Simulator& sim, sim::World& world,
                      sim::Channel& channel, sim::EnergyTracker& energy,
                      Topology& topology, Rng rng);

  /// Starts the periodic sweeps (runs until stop() or end of simulation).
  void start();
  void stop();

  /// One synchronous maintenance pass over all cells (also used by tests).
  void sweep();

  struct Stats {
    std::uint64_t replacements = 0;
    std::uint64_t failed_replacements = 0;
    std::uint64_t probe_broadcasts = 0;
    std::uint64_t sweeps = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void schedule_next();
  void probe_wait_nodes();
  /// True when the label's holder must be replaced.
  [[nodiscard]] bool needs_replacement(const Cell& cell, const Label& label,
                                       NodeId node);
  /// Number of the label's Kautz arcs that a holder at `at` cannot keep
  /// within link-margin range.
  [[nodiscard]] int broken_arcs(const Cell& cell, const Label& label,
                                NodeId node, Point at);
  void replace(Cell& cell, const Label& label, NodeId old_node);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  sim::EnergyTracker* energy_;
  Topology* topology_;
  Rng rng_;
  /// broken_arcs' distinct holders of the label's in/out Kautz
  /// neighbours (at most 2d); refilled per call, so its capacity is
  /// reused and sweeps do not allocate once warm.
  std::vector<NodeId> arc_holders_;
  Stats stats_;
  bool running_ = false;
  double last_probe_ = 0;
};

}  // namespace refer::core
