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
#include <vector>

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
  /// Fills arc_holders_ with the distinct alive holders of the label's
  /// in/out Kautz neighbours and their positions.
  void collect_arc_holders(const Cell& cell, const Label& label);
  /// Number of arc_holders_ (other than `node` itself) that a holder of
  /// the label at `at` cannot keep within link-margin range.
  [[nodiscard]] int broken_arcs(NodeId node, Point at) const;
  /// The world's sensors, re-listed only when nodes were added.
  [[nodiscard]] const std::vector<NodeId>& sensors();
  void replace(Cell& cell, const Label& label, NodeId old_node);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  sim::EnergyTracker* energy_;
  Topology* topology_;
  Rng rng_;
  /// collect_arc_holders' output (at most 2d entries); refilled per
  /// label, so its capacity is reused and sweeps do not allocate once
  /// warm.
  struct ArcHolder {
    NodeId id;
    Point at;
  };
  std::vector<ArcHolder> arc_holders_;
  /// sensors()' list and the world size it was taken at.
  std::vector<NodeId> sensors_;
  std::size_t sensors_listed_at_ = 0;
  Stats stats_;
  bool running_ = false;
  double last_probe_ = 0;
};

}  // namespace refer::core
