// TTL-bounded flooding: the "topological routing" component [35] used by
// the baseline systems for route discovery/repair, and by REFER's
// embedding protocol for its TTL=2 path queries (paper SIII-B2).
//
// Every rebroadcast is a real Channel broadcast: it costs TX energy at the
// forwarder and RX energy at every neighbour -- this is precisely the
// energy the paper's Figs. 5/9/10 charge the flooding-based systems for.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace refer::net {

using sim::NodeId;

/// Flood-based discovery service.  Stateless between calls except for the
/// query-id counter; per-query state lives in a query object owned by the
/// query's in-flight frames and deadline, freed after the last one fires.
/// Every flood relay decision (suppression check, path bookkeeping,
/// rebroadcast kickoff) charges the simulator's Phase::kFlooding.
class Flooder {
 public:
  Flooder(sim::Simulator& sim, sim::World& world, sim::Channel& channel)
      : sim_(&sim), world_(&world), channel_(&channel) {}

  /// Called with the discovered src->target path, or nullopt on timeout.
  using DiscoverDone =
      std::function<void(std::optional<std::vector<NodeId>> path)>;

  /// Floods a route request from `src`; the first copy reaching `target`
  /// over *symmetric* links defines the path (lowest-delay, as in
  /// AODV/directed diffusion; nodes ignore query copies from forwarders
  /// they cannot reach back).  The reply travels back along the reverse
  /// path as unicasts (also charged).  `done` fires when the reply
  /// reaches `src`, or at the deadline.
  void discover(NodeId src, NodeId target, int ttl,
                sim::EnergyBucket bucket, DiscoverDone done,
                std::size_t query_bytes = 64, double deadline_s = 2.0);

  /// Called with every path that reached `target` before the deadline
  /// (each path is src...target), in arrival order.
  using CollectDone = std::function<void(std::vector<std::vector<NodeId>>)>;

  /// Floods a path query and collects *all* arriving paths at the target
  /// within the deadline -- the embedding protocol's TTL=2 query, where
  /// the successor actuator picks among candidate paths (paper SIII-B2).
  /// Forwarders do not suppress duplicates of different provenance paths
  /// arriving first at them are rebroadcast once per forwarder (standard
  /// flood suppression), so distinct node-disjoint paths reach the target
  /// through distinct forwarders.
  /// `query_tx_range` > 0 sends every query broadcast at reduced power
  /// (transmit power control, used by the embedding so actuator-sourced
  /// queries traverse sensor-length hops); 0 = full power.
  void collect_paths(NodeId src, NodeId target, int ttl,
                     sim::EnergyBucket bucket, CollectDone done,
                     std::size_t query_bytes = 64, double deadline_s = 2.0,
                     double query_tx_range = 0);

  /// Pure broadcast storm with TTL, no target.  `on_node(node, hops,
  /// parent)` fires on each receipt of the announcement by a node that
  /// has not yet *accepted* it; returning true accepts (the node
  /// rebroadcasts and ignores further copies), returning false rejects
  /// this copy (e.g. the link back to the forwarder is asymmetric) and
  /// leaves the node eligible for later copies.  Used for DaTree
  /// construction (root beacon, accept = parent reachable) and global
  /// announcements.
  void announce(NodeId src, int ttl, sim::EnergyBucket bucket,
                std::function<bool(NodeId node, int hops, NodeId parent)>
                    on_node,
                std::size_t bytes = 64);

  /// Number of floods started (tests/metrics).
  [[nodiscard]] std::uint64_t floods_started() const noexcept {
    return next_query_;
  }

 private:
  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  std::uint64_t next_query_ = 0;
};

/// BFS over the *current* physical connectivity (directed by sender
/// range): the ground-truth multi-hop path, used by tests, by topology
/// bootstrap oracles, and to model cached routes.  Charges no energy.
[[nodiscard]] std::optional<std::vector<NodeId>> bfs_path(
    sim::World& world, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>* exclude = nullptr);

/// Sends `bytes` hop-by-hop along `path` (front()=current holder) as data
/// unicasts.  `done(delivered_hops, success)` fires when the last hop
/// delivers or a hop fails.
void send_along_path(sim::Channel& channel, std::vector<NodeId> path,
                     std::size_t bytes, sim::EnergyBucket bucket,
                     std::function<void(std::size_t delivered_hops,
                                        bool success)>
                         done);

}  // namespace refer::net
