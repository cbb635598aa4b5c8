// The Kautz graph embedding protocol (paper SIII-B).
//
// Phases, all executed as real (energy-charged) protocol traffic on the
// simulated channel:
//
//  1. Actuator discovery: every actuator broadcasts a hello and then its
//     neighbour list; the actuator with the minimum consistent-hash value
//     H(A) becomes the starting server.
//  2. Cell partition: the starting server triangulates the actuator layer
//     (Delaunay, filtered by actuator range), assigns CIDs so that closer
//     cells have closer CIDs, 3-colours the actuators so each triangle's
//     corners get the distinct KIDs 012 / 120 / 201 (sequential vertex
//     colouring with backtracking), and notifies every actuator by
//     depth-first unicasts.
//  3. Sensor ID assignment per cell (K(2,3) schedule, SIII-B2): TTL=2
//     path-query floods between actuator pairs; the target picks the
//     arrived path with the highest accumulated battery and assigns the
//     two intermediate labels by unicast.  Then the S_i -> S_j sensor
//     query (121 -> 020) assigns 210 and 102, and the common physical
//     neighbour of those two holders with the highest battery receives
//     021.
//  4. Roles: chosen sensors become Active, sensors hearing an active
//     Kautz sensor become Wait (candidates), the rest Sleep.
//  5. The cells join the inter-cell CAN at their normalised centroids.
//
// Robustness fallback: in sparse spots a TTL=2 flood can fail to return a
// 2-intermediate path; the protocol then falls back to a directed
// assignment (geometrically closest connectable unassigned sensors),
// charged as two extra unicasts.  The fallback count is reported in
// Stats; it is zero for the paper's dense default scenario.
#pragma once

#include <functional>

#include "net/flooding.hpp"
#include "refer/topology.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::core {

struct EmbeddingConfig {
  /// Path queries transmit at this power-controlled range so that
  /// actuator-sourced TTL=2 floods discover sensor-length 3-hop chains
  /// (the paper's K(2,3) geometry); 0 = senders' full power.
  double query_tx_range = 100.0;
};

/// Runs the embedding and fills a Topology.
class EmbeddingProtocol {
 public:
  EmbeddingProtocol(sim::Simulator& sim, sim::World& world,
                    sim::Channel& channel, net::Flooder& flooder,
                    sim::EnergyTracker& energy, EmbeddingConfig config = {});

  /// Fired when the embedding finished; ok=false when no valid cell
  /// partition or colouring exists.
  using DoneFn = std::function<void(bool ok)>;

  /// Executes all phases; the result lands in topology().
  void run(DoneFn done);

  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  struct Stats {
    int actuator_broadcasts = 0;
    int notification_unicasts = 0;
    int path_queries = 0;
    int fallback_assignments = 0;
    /// Fallbacks that could not even satisfy connectivity and placed the
    /// geometrically best sensor regardless (sparse deployments).
    int degraded_assignments = 0;
    int cells_embedded = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Exact 3-colouring of a small graph by backtracking; public for tests.
  /// adjacency[i] lists neighbours of i; returns colour per vertex or
  /// empty when no 3-colouring exists.
  [[nodiscard]] static std::vector<int> three_color(
      const std::vector<std::vector<int>>& adjacency);

 private:
  struct QueryTask {
    Cid cid;
    PathQueryTemplate tmpl;
  };

  bool partition_and_color();
  void notify_actuators(DoneFn done);
  void run_next_query(std::size_t index, DoneFn done);
  void finish_cell_fill_ins(std::size_t cell_index, DoneFn done);
  void assign_roles_and_join_can();

  /// Picks the best arrived path (exactly two unassigned sensor
  /// intermediates, max battery) or falls back to directed assignment.
  bool apply_query_result(const QueryTask& task,
                          const std::vector<std::vector<NodeId>>& paths);
  bool fallback_assign(const QueryTask& task);
  [[nodiscard]] bool sensor_unassigned(NodeId node) const;

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder* flooder_;
  sim::EnergyTracker* energy_;
  EmbeddingConfig config_;
  Topology topology_;
  Stats stats_;
  std::vector<QueryTask> tasks_;
};

}  // namespace refer::core
